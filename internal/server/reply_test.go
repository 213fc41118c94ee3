package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"cfdclean/internal/gen"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
)

// TestApplyReplyOmitsWeights: an /apply reply carries each inserted
// tuple's id and values and never its weights, while the session keeps
// exactly the weights the client sent — in a pinned read view and after a
// restart on the same data dir. Three batches at SnapshotEvery 2 put the
// weighted tuples both in the page store and in the WAL the restart
// replays.
func TestApplyReplyOmitsWeights(t *testing.T) {
	// The case runs under "disk", the page store that backs every
	// durable session.
	t.Run("disk", func(t *testing.T) {
		opts := Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 2, QueueDepth: 8}
		s1 := New(opts)
		ts1 := httptest.NewServer(s1.Handler())
		const name = "weighted"
		createRecovery(t, ts1.URL, name)

		sent := map[int64][]float64{}
		for i := 0; i < 3; i++ {
			// The second tuple violates phi1 (212 → NYC, NY) and is
			// repaired: its values change, its weights must not.
			ar := ApplyRequest{Inserts: []WireTuple{
				{Vals: []*string{strp("212"), strp(fmt.Sprintf("444%04d", i)), strp("NYC"), strp("NY"), strp("10012")},
					W: []float64{0.9, 0.4, 0.25, 1, float64(i) / 8}},
				{Vals: []*string{strp("212"), strp(fmt.Sprintf("555%04d", i)), strp("PHI"), strp("PA"), strp("10012")},
					W: []float64{1, 0, 0.125, 0.5, 0.75 - float64(i)/16}},
			}}
			resp, body := do(t, "POST", ts1.URL+"/v1/sessions/"+name+"/apply", ar)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("apply %d: %d: %s", i, resp.StatusCode, body)
			}
			if bytes.Contains(body, []byte(`"w"`)) {
				t.Fatalf("apply %d: reply carries weights: %s", i, body)
			}
			var reply ApplyResponse
			if err := json.Unmarshal(body, &reply); err != nil {
				t.Fatal(err)
			}
			if len(reply.Inserted) != 2 || len(reply.Changed) == 0 {
				t.Fatalf("apply %d: want two inserted tuples and a repaired cell: %s", i, body)
			}
			for j, wt := range reply.Inserted {
				if wt.ID == 0 || len(wt.Vals) != 5 {
					t.Fatalf("apply %d: inserted[%d] = %+v, want an id and five values", i, j, wt)
				}
				sent[wt.ID] = ar.Inserts[j].W
			}
		}

		// requireWeights reads the hosted session through a pinned view.
		requireWeights := func(s *Server, when string) {
			t.Helper()
			h, err := s.reg.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			rv, release, err := h.views.acquireCurrent()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			found := 0
			for c := rv.Rows(); ; {
				tu := c.Next()
				if tu == nil {
					break
				}
				if w, ok := sent[int64(tu.ID)]; ok {
					found++
					if !slices.Equal(tu.W, w) {
						t.Fatalf("%s: tuple %d holds weights %v, sent %v", when, tu.ID, tu.W, w)
					}
				}
			}
			if found != len(sent) {
				t.Fatalf("%s: %d of the %d inserted tuples found", when, found, len(sent))
			}
		}
		requireWeights(s1, "live")
		shutdownService(t, s1, ts1)

		s2, _ := newTestService(t, opts)
		if n, err := s2.Recover(); err != nil || n != 1 {
			t.Fatalf("recover: n=%d err=%v", n, err)
		}
		requireWeights(s2, "recovered")
	})
}

// replyFixture is the result of one 100-tuple batch of generated,
// weighted tuples: each arrives dirty and is stored with its clean values
// and its arriving weights, as the engine stores a repaired tuple.
func replyFixture(tb testing.TB) (*increpair.Result, []string) {
	tb.Helper()
	ds, err := gen.New(gen.Config{Size: 400, NoiseRate: 0.05, Seed: 7, Weights: true})
	if err != nil {
		tb.Fatal(err)
	}
	res := &increpair.Result{}
	for id := relation.TupleID(1); len(res.Inserted) < 100; id++ {
		dirty := ds.Dirty.Tuple(id)
		res.Inserted = append(res.Inserted, &relation.Tuple{ID: id, Vals: ds.Opt.Tuple(id).Vals, W: dirty.W})
		res.Originals = append(res.Originals, dirty)
	}
	return res, ds.Opt.Schema().Attrs()
}

// BenchmarkApplyReply times both ends of one 100-tuple /apply reply: the
// server building and encoding it, and a client decoding it with
// encoding/json (the benchmark harness's reflective Unmarshal).
func BenchmarkApplyReply(b *testing.B) {
	res, attrs := replyFixture(b)
	var snap increpair.Snapshot
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := json.NewEncoder(io.Discard).Encode(applyResponse("bench", 1, res, 0, snap, attrs)); err != nil {
				b.Fatal(err)
			}
		}
	})
	body, err := json.Marshal(applyResponse("bench", 1, res, 0, snap, attrs))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var ar ApplyResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				b.Fatal(err)
			}
		}
		// After the loop: its first iteration resets reported metrics.
		b.ReportMetric(float64(len(body)), "B/reply")
	})
}
