package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
)

// tinyCFDs is the README example: area code 212 implies city NYC.
const tinyCFDs = "cfd phi1: [AC] -> [CT]\n(212 || NYC)\n"

func strp(s string) *string { return &s }

func newTestService(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func createTiny(t *testing.T, base string, name string) {
	t.Helper()
	resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
		Name:   name,
		Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
		CFDs:   tinyCFDs,
		Base:   []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
}

func TestServiceRoundTrip(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL

	resp, body := do(t, "GET", base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d: %s", resp.StatusCode, body)
	}

	createTiny(t, base, "orders")

	// Apply one clean and one dirty insert: the 212/PHI tuple must be
	// repaired to satisfy phi1.
	resp, body = do(t, "POST", base+"/v1/sessions/orders/apply", ApplyRequest{
		Inserts: []WireTuple{
			{Vals: []*string{strp("212"), strp("NYC")}},
			{Vals: []*string{strp("212"), strp("PHI")}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: %d: %s", resp.StatusCode, body)
	}
	var ar ApplyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Seq != 1 || len(ar.Inserted) != 2 {
		t.Fatalf("apply response: seq=%d inserted=%d", ar.Seq, len(ar.Inserted))
	}
	if !ar.Snapshot.Satisfied || ar.Snapshot.Size != 3 {
		t.Fatalf("apply snapshot: %+v", ar.Snapshot)
	}
	if ar.Changes == 0 || len(ar.Changed) == 0 {
		t.Fatal("dirty insert was not repaired")
	}

	resp, body = do(t, "GET", base+"/v1/sessions/orders/violations", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("violations: %d: %s", resp.StatusCode, body)
	}
	var vr ViolationsResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Total != 0 || len(vr.Violations) != 0 {
		t.Fatalf("session should be consistent, got %+v", vr)
	}

	resp, body = do(t, "GET", base+"/v1/sessions/orders/dump", nil)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "AC,CT\n") {
		t.Fatalf("dump: %d: %q", resp.StatusCode, body)
	}
	// The repair may fix either side of the violating tuple (here it
	// nulls AC, the cheaper change); what must be gone is the violating
	// combination itself.
	if strings.Contains(string(body), "212,PHI") {
		t.Fatalf("dump still contains the violating row:\n%s", body)
	}

	resp, body = do(t, "GET", base+"/v1/sessions", nil)
	var lr ListResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Sessions) != 1 || lr.Sessions[0].Name != "orders" {
		t.Fatalf("list: %s", body)
	}

	mr := getMetricsJSON(t, base)
	for name, want := range map[string]float64{
		"cfdserved_sessions": 1, "cfdserved_passes_total": 1,
		"cfdserved_batches_total": 1, "cfdserved_tuples_total": 2,
	} {
		if mr[name] != want {
			t.Fatalf("%s = %v, want %g", name, mr[name], want)
		}
	}
	if n := mr["cfdserved_pass_duration_seconds"].(map[string]any)["count"]; n != 1.0 {
		t.Fatalf("cfdserved_pass_duration_seconds count = %v, want 1", n)
	}

	resp, _ = do(t, "DELETE", base+"/v1/sessions/orders", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", base+"/v1/sessions/orders", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d", resp.StatusCode)
	}
}

func TestServiceApplyDeletesAndSets(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")

	// Insert a second tuple, then update its CT to a violating value —
	// the set is re-cleaned — and delete the base tuple.
	resp, body := do(t, "POST", base+"/v1/sessions/s/apply", ApplyRequest{
		Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: %d: %s", resp.StatusCode, body)
	}
	var first ApplyResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	newID := first.Inserted[0].ID

	resp, body = do(t, "POST", base+"/v1/sessions/s/apply", ApplyRequest{
		Deletes: []int64{1},
		Sets:    []WireSet{{ID: newID, Attr: "CT", Value: strp("PHI")}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply ops: %d: %s", resp.StatusCode, body)
	}
	var ar ApplyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Deleted != 1 || !ar.Snapshot.Satisfied || ar.Snapshot.Size != 1 {
		t.Fatalf("apply ops response: %s", body)
	}
	// The update introduced a phi1 violation, so the repair must have
	// touched the tuple (either CT back or AC away).
	if ar.Changes == 0 {
		t.Fatalf("violating set was stored untouched: %s", body)
	}

	// Engine-level validation errors surface as 422.
	resp, body = do(t, "POST", base+"/v1/sessions/s/apply", ApplyRequest{Deletes: []int64{424242}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown delete id: %d: %s", resp.StatusCode, body)
	}
	// Wire-level validation errors surface as 400.
	resp, body = do(t, "POST", base+"/v1/sessions/s/apply", ApplyRequest{
		Sets: []WireSet{{ID: newID, Attr: "NOPE", Value: strp("x")}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown attr: %d: %s", resp.StatusCode, body)
	}
	// The wire contract assigns insert ids server-side; a client-supplied
	// id is refused before anything reaches the engine.
	resp, body = do(t, "POST", base+"/v1/sessions/s/apply", ApplyRequest{
		Inserts: []WireTuple{{ID: 99, Vals: []*string{strp("212"), strp("NYC")}}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("insert with client id: %d: %s", resp.StatusCode, body)
	}
}

func TestServiceCreateValidation(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL

	cases := []struct {
		name string
		req  CreateRequest
	}{
		{"empty name", CreateRequest{CFDs: tinyCFDs, Schema: &WireSchema{Name: "r", Attrs: []string{"A"}}}},
		{"bad name", CreateRequest{Name: "a/b", CFDs: tinyCFDs, Schema: &WireSchema{Name: "r", Attrs: []string{"A"}}}},
		{"no cfds", CreateRequest{Name: "x", Schema: &WireSchema{Name: "r", Attrs: []string{"A"}}}},
		{"no base", CreateRequest{Name: "x", CFDs: tinyCFDs}},
		{"bad cfd text", CreateRequest{Name: "x", CFDs: "cfd broken", Schema: &WireSchema{Name: "r", Attrs: []string{"AC", "CT"}}}},
		{"bad ordering", CreateRequest{Name: "x", CFDs: tinyCFDs,
			Schema:  &WireSchema{Name: "r", Attrs: []string{"AC", "CT"}},
			Options: &WireOptions{Ordering: "bogus"}}},
	}
	for _, c := range cases {
		resp, body := do(t, "POST", base+"/v1/sessions", c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d: %s", c.name, resp.StatusCode, body)
		}
	}

	// The storage backend is a node property (-store): a create body
	// that still carries the removed per-session "store" field is an
	// unknown field, not a silently ignored one.
	resp, body := do(t, "POST", base+"/v1/sessions", map[string]any{
		"name": "x", "cfds": tinyCFDs, "store": "disk",
		"schema": WireSchema{Name: "r", Attrs: []string{"AC", "CT"}},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"store\"`) {
		t.Errorf("create with a store field: got %d: %s", resp.StatusCode, body)
	}
	// The retired "workers" option is refused the same way.
	resp, body = do(t, "POST", base+"/v1/sessions", map[string]any{
		"name": "x", "cfds": tinyCFDs, "options": map[string]any{"workers": 2},
		"schema": WireSchema{Name: "r", Attrs: []string{"AC", "CT"}},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"workers\"`) {
		t.Errorf("create with a workers option: got %d: %s", resp.StatusCode, body)
	}

	createTiny(t, base, "dup")
	resp, body = do(t, "POST", base+"/v1/sessions", CreateRequest{
		Name:   "dup",
		Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
		CFDs:   tinyCFDs,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d: %s", resp.StatusCode, body)
	}

	resp, _ = do(t, "POST", base+"/v1/sessions/nope/apply", ApplyRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("apply to unknown session: %d", resp.StatusCode)
	}
}

// TestCoalescing drives the worker's fold loop directly: three queued
// async batches must collapse into one engine pass with all tuples
// applied, while a synchronous job is never folded.
func TestCoalescing(t *testing.T) {
	r := NewRegistry(8)
	h := newTinyHosted(t, r, 8)

	mk := func(ct string) []*relation.Tuple {
		return []*relation.Tuple{relation.NewTuple(0, "212", ct)}
	}
	// Two queued async batches behind the one the worker "picked up".
	h.queue <- job{inserts: mk("NYC"), coalescable: true}
	h.queue <- job{inserts: mk("PHI"), coalescable: true}
	h.dispatch(r, job{inserts: mk("NYC"), coalescable: true})

	if got := h.seq.Load(); got != 1 {
		t.Fatalf("coalesced run took %d passes, want 1", got)
	}
	if r.coalesced.Load() != 2 {
		t.Fatalf("coalesced counter = %d, want 2", r.coalesced.Load())
	}
	sn := h.sess.Snapshot()
	if sn.Inserted != 3 || !sn.Satisfied {
		t.Fatalf("after coalesced pass: %+v", sn)
	}

	// A sync job parked behind an async one flushes the fold: two passes.
	reply := make(chan jobReply, 1)
	h.queue <- job{inserts: mk("NYC"), reply: reply}
	h.dispatch(r, job{inserts: mk("NYC"), coalescable: true})
	rep := <-reply
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	if got := h.seq.Load(); got != 3 {
		t.Fatalf("async+sync run took %d total passes, want 3", got)
	}
}

// newTinyHosted builds a hosted session over the AC/CT fixture without
// starting a worker, so tests can drive dispatch deterministically. The
// committer stage IS started (dispatch hands every finished pass to it);
// cleanup drains it before the session closes, mirroring run()'s order.
func newTinyHosted(t *testing.T, r *Registry, queueDepth int) *hosted {
	t.Helper()
	sch := relation.MustSchema("orders", "AC", "CT")
	rel := relation.New(sch)
	rel.MustInsert(relation.NewTuple(0, "212", "NYC"))
	parsed, err := cfd.Parse(sch, strings.NewReader(tinyCFDs))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := increpair.NewSession(rel, cfd.NormalizeAll(parsed), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	h := &hosted{
		name:          "tiny",
		schema:        sch,
		attrs:         sch.Attrs(),
		sess:          sess,
		ops:           r.ops.child(),
		queue:         make(chan job, queueDepth),
		commits:       make(chan *commitItem, queueDepth),
		committerDone: make(chan struct{}),
		quit:          make(chan struct{}),
		done:          make(chan struct{}),
		views:         newViewCache(sess),
	}
	go h.committer(r)
	t.Cleanup(func() {
		close(h.commits)
		<-h.committerDone
	})
	return h
}

// TestBackpressure: with no worker draining a depth-1 queue, the second
// ingest must be refused with ErrBacklog (the handlers map it to 429).
func TestBackpressure(t *testing.T) {
	r := NewRegistry(1)
	h := newTinyHosted(t, r, 1)
	sh := r.shard("tiny")
	sh.m["tiny"] = h

	one := []*relation.Tuple{relation.NewTuple(0, "212", "NYC")}
	if err := r.Ingest(h, one); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if err := r.Ingest(h, one); err != ErrBacklog {
		t.Fatalf("second ingest: got %v, want ErrBacklog", err)
	}
	if r.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", r.rejected.Load())
	}

	rec := httptest.NewRecorder()
	writeError(rec, ErrBacklog)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("ErrBacklog must map to 429 + Retry-After, got %d", rec.Code)
	}
}

// TestIngestEndToEnd: async batches are applied eventually; accepted
// work is observable via the snapshot.
func TestIngestEndToEnd(t *testing.T) {
	_, ts := newTestService(t, Options{QueueDepth: 16})
	base := ts.URL
	createTiny(t, base, "s")

	const n = 5
	for i := 0; i < n; i++ {
		resp, body := do(t, "POST", base+"/v1/sessions/s/ingest", ApplyRequest{
			Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("PHI")}}},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	// Ingest refuses non-insert ops.
	resp, body := do(t, "POST", base+"/v1/sessions/s/ingest", ApplyRequest{Deletes: []int64{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ingest with deletes: %d: %s", resp.StatusCode, body)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := do(t, "GET", base+"/v1/sessions/s", nil)
		var si SessionInfo
		if err := json.Unmarshal(body, &si); err != nil {
			t.Fatal(err)
		}
		if si.Snapshot.Inserted == n {
			if !si.Snapshot.Satisfied {
				t.Fatalf("ingested batches left violations: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested batches never applied: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrain: shutdown refuses new work but finishes every accepted
// batch before closing sessions.
func TestDrain(t *testing.T) {
	s := New(Options{QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := ts.URL
	createTiny(t, base, "s")

	const n = 4
	for i := 0; i < n; i++ {
		resp, body := do(t, "POST", base+"/v1/sessions/s/ingest", ApplyRequest{
			Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("PHI")}}},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
		}
	}
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	sn := h.sess.Snapshot()
	if sn.Inserted != n {
		t.Fatalf("drain dropped batches: inserted %d, want %d", sn.Inserted, n)
	}
	if !sn.Closed {
		t.Fatal("session not closed after drain")
	}

	resp, _ := do(t, "GET", base+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d", resp.StatusCode)
	}
	resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
		Name:   "late",
		Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
		CFDs:   tinyCFDs,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while drained: %d: %s", resp.StatusCode, body)
	}
}

// TestEvents: the SSE stream delivers one batch event per engine pass
// and ends when the session is deleted.
func TestEvents(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")

	req, err := http.NewRequest("GET", base+"/v1/sessions/s/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type: %s", ct)
	}

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	expect := func(want string) string {
		t.Helper()
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatalf("stream ended waiting for %q", want)
				}
				if l == "" {
					continue
				}
				if strings.HasPrefix(l, want) {
					return l
				}
				if strings.HasPrefix(l, ":") {
					continue // comment / keep-alive
				}
				t.Fatalf("unexpected stream line %q (want prefix %q)", l, want)
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out waiting for %q", want)
			}
		}
	}

	// The server writes an initial comment; then apply a batch and
	// expect its event.
	do(t, "POST", base+"/v1/sessions/s/apply", ApplyRequest{
		Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("PHI")}}},
	})
	expect("id: ")
	expect("event: batch")
	data := expect("data: ")
	var ev Event
	if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Session != "s" || ev.Seq != 1 || ev.Inserted != 1 || len(ev.Dirty) == 0 {
		t.Fatalf("event: %+v", ev)
	}
	if !ev.Snapshot.Satisfied {
		t.Fatalf("event snapshot unsatisfied: %+v", ev)
	}

	do(t, "DELETE", base+"/v1/sessions/s", nil)
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-lines:
			if !ok {
				return // stream ended cleanly
			}
		case <-deadline:
			t.Fatal("stream did not end after session delete")
		}
	}
}

// TestErrorPaths sweeps the handler-level failure mapping: unknown
// sessions, malformed bodies and parameters, and post-drain behavior.
func TestErrorPaths(t *testing.T) {
	s, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")

	for _, c := range []struct {
		method, path string
		body         any
		want         int
	}{
		{"GET", "/v1/sessions/nope", nil, http.StatusNotFound},
		{"DELETE", "/v1/sessions/nope", nil, http.StatusNotFound},
		{"GET", "/v1/sessions/nope/violations", nil, http.StatusNotFound},
		{"GET", "/v1/sessions/nope/dump", nil, http.StatusNotFound},
		{"GET", "/v1/sessions/nope/events", nil, http.StatusNotFound},
		{"POST", "/v1/sessions/nope/ingest", ApplyRequest{}, http.StatusNotFound},
		{"GET", "/v1/sessions/s/violations?limit=abc", nil, http.StatusBadRequest},
	} {
		resp, body := do(t, c.method, base+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: got %d (%s), want %d", c.method, c.path, resp.StatusCode, body, c.want)
		}
	}

	// Malformed JSON and unknown fields are 400s.
	resp, err := http.Post(base+"/v1/sessions/s/apply", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/sessions/s/apply", "application/json", strings.NewReader(`{"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}

	// Registry paths not reachable over clean HTTP: apply to a session
	// already being shut down, and a canceled client context.
	h, err2 := s.Registry().Get("s")
	if err2 != nil {
		t.Fatal(err2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	one := []*relation.Tuple{relation.NewTuple(0, "212", "NYC")}
	if _, err := s.Registry().Apply(ctx, h, nil, nil, one); err != context.Canceled {
		t.Fatalf("canceled apply: got %v", err)
	}
	// While the worker is still draining, a racing apply may legitimately
	// be accepted and processed; once the worker has exited (done
	// closed), both paths must refuse deterministically — never hang,
	// never silently drop.
	h.quitOnce.Do(func() { close(h.quit) })
	<-h.done
	if _, err := s.Registry().Apply(context.Background(), h, nil, nil, one); err != ErrDraining {
		t.Fatalf("apply to drained session: got %v", err)
	}
	if err := s.Registry().Ingest(h, one); err != ErrDraining {
		t.Fatalf("ingest to drained session: got %v", err)
	}

	// Shutdown without a caller deadline picks up DrainTimeout.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestRemoveWaitsForQueue(t *testing.T) {
	s, ts := newTestService(t, Options{QueueDepth: 16})
	base := ts.URL
	createTiny(t, base, "s")
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, body := do(t, "POST", base+"/v1/sessions/s/ingest", ApplyRequest{
			Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("PHI")}}},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
		}
	}
	resp, _ := do(t, "DELETE", base+"/v1/sessions/s", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	sn := h.sess.Snapshot()
	if sn.Inserted != 3 || !sn.Closed {
		t.Fatalf("remove dropped queued work: %+v", sn)
	}
}

// Registry exposes the session registry (tests talk to it directly).
func (s *Server) Registry() *Registry { return s.reg }
