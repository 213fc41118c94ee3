package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// BenchmarkRecover times Server.Recover of one durable session: 20 000
// generated dirty tuples cleaned at create, then ten applies of ten
// tuples each, so recovery restores the page store's rows and replays
// the ten batches behind them. Every round boots a fresh server on the
// same data directory; recovery resumes the tip WAL, so the directory
// holds the same generation from round to round.
func BenchmarkRecover(b *testing.B) {
	ds, err := gen.New(gen.Config{Size: 20000, NoiseRate: 0.08, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	var base, sigma bytes.Buffer
	if err := relation.WriteCSV(ds.Dirty, &base); err != nil {
		b.Fatal(err)
	}
	if err := cfd.Format(&sigma, ds.CFDs); err != nil {
		b.Fatal(err)
	}
	opts := Options{DataDir: b.TempDir(), QueueDepth: 8}
	post := func(h http.Handler, path string, body any) {
		b.Helper()
		js, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(js)))
		if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
			b.Fatalf("POST %s: %d: %s", path, rec.Code, rec.Body)
		}
	}
	s := New(opts)
	post(s.Handler(), "/v1/sessions", CreateRequest{Name: "r", CFDs: sigma.String(), BaseCSV: base.String()})
	for i := 0; i < 10; i++ {
		var ar ApplyRequest
		for _, t := range ds.Dirty.Tuples()[10*i : 10*i+10] {
			wt := WireTuple{}
			for _, v := range t.Vals {
				if v.Null {
					wt.Vals = append(wt.Vals, nil)
				} else {
					wt.Vals = append(wt.Vals, strp(v.Str))
				}
			}
			ar.Inserts = append(ar.Inserts, wt)
		}
		post(s.Handler(), "/v1/sessions/r/apply", ar)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(opts)
		if n, err := s.Recover(); err != nil || n != 1 {
			b.Fatalf("recover: %d sessions, %v", n, err)
		}
		b.StopTimer()
		if err := s.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
