package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// FuzzCreateRequest: a create body is bytes from the client. Whatever it
// is, POST /v1/sessions on an in-memory server with a 4 KiB body limit
// answers 201, 400, 409 or 413 — never a panic or a 5xx — and a session
// it creates answers GET with a satisfied snapshot (it is then deleted,
// so the server hosts at most one at a time). The seeds are createTiny's
// body and README's create examples.
func FuzzCreateRequest(f *testing.F) {
	tiny, err := json.Marshal(CreateRequest{
		Name:   "s",
		Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
		CFDs:   tinyCFDs,
		Base:   []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tiny)
	f.Add([]byte(`{
  "name": "orders",
  "base_csv": "AC,CT\n212,NYC\n",
  "cfds": "cfd phi1: [AC] -> [CT]\n(212 || NYC)\n",
  "options": {"ordering": "vio"}
}`))
	f.Add([]byte(`{"name":"q","base_csv":"AC,CT\n212,NYC\n",
  "cfds":"cfd phi1: [AC] -> [CT]\n(212 || NYC)\n","quota":{"ops_per_sec":1}}`))
	f.Add([]byte(`{
  "name": "bursty", "base_csv": "AC,CT\n212,NYC\n",
  "cfds": "cfd phi1: [AC] -> [CT]\n(212 || NYC)\n",
  "quota": {"ops_per_sec": 5, "max_subscribers": 4}
}`))

	s := New(Options{MaxBodyBytes: 4 << 10})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	h := s.Handler()
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve("POST", "/v1/sessions", body)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("create answered %d: %s", rec.Code, rec.Body)
		}
		var cr CreateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatalf("create reply: %v: %s", err, rec.Body)
		}
		path := "/v1/sessions/" + url.PathEscape(cr.Name)
		defer func() {
			if rec := serve("DELETE", path, nil); rec.Code != http.StatusNoContent {
				t.Fatalf("delete %q: %d: %s", cr.Name, rec.Code, rec.Body)
			}
		}()
		get := serve("GET", path, nil)
		var si SessionInfo
		if err := json.Unmarshal(get.Body.Bytes(), &si); get.Code != http.StatusOK || err != nil {
			t.Fatalf("get %q: %d (%v): %s", cr.Name, get.Code, err, get.Body)
		}
		if !si.Snapshot.Satisfied {
			t.Fatalf("created session %q is not satisfied: %+v", cr.Name, si.Snapshot)
		}
	})
}
