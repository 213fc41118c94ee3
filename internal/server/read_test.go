package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// Tests for the streaming read path: cursor-paginated violation
// listings, chunked CSV dumps with completion trailers, version-pinned
// view reuse with 410 on eviction, and SSE resume from Last-Event-ID.

func applyOne(t *testing.T, base, name string, ac, ct string) WireSnapshot {
	t.Helper()
	resp, body := do(t, "POST", base+"/v1/sessions/"+name+"/apply", ApplyRequest{
		Inserts: []WireTuple{{Vals: []*string{strp(ac), strp(ct)}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: %d: %s", resp.StatusCode, body)
	}
	var ar ApplyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar.Snapshot
}

func TestViolationsParamValidation(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")

	for _, c := range []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},
		{"?limit=5", http.StatusOK},
		{"?limit=0", http.StatusBadRequest},
		{"?limit=-3", http.StatusBadRequest},
		{"?limit=abc", http.StatusBadRequest},
		{"?attr=CT", http.StatusOK},
		{"?attr=NOPE", http.StatusBadRequest},
		{"?rule=phi1&min_id=1&max_id=9", http.StatusOK},
		{"?min_id=-1", http.StatusBadRequest},
		{"?max_id=x", http.StatusBadRequest},
		{"?cursor=!!!", http.StatusBadRequest},
	} {
		resp, body := do(t, "GET", base+"/v1/sessions/s/violations"+c.query, nil)
		if resp.StatusCode != c.want {
			t.Errorf("violations%s: %d (want %d): %s", c.query, resp.StatusCode, c.want, body)
		}
		if c.want == http.StatusOK && resp.Header.Get("X-Session-Version") == "" {
			t.Errorf("violations%s: no X-Session-Version header", c.query)
		}
	}

	// A cursor fixes the filter; explicit filter params alongside it are
	// ambiguous and refused.
	tok := encodeCursor(readCursor{version: 1, f: cfd.AnyVio()})
	resp, body := do(t, "GET", base+"/v1/sessions/s/violations?cursor="+tok+"&rule=phi1", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cursor+filter: %d: %s", resp.StatusCode, body)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	for _, c := range []readCursor{
		{version: 7, offset: 120, f: cfd.AnyVio()},
		{version: 1, offset: 0, f: cfd.VioFilter{Rule: "phi:with:colons", Attr: 3, MinID: 5, MaxID: 900}},
	} {
		got, err := decodeCursor(encodeCursor(c))
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("cursor round trip: got %+v want %+v", got, c)
		}
	}
	for _, bad := range []string{
		"", "AAAA", "!!!",
		base64.RawURLEncoding.EncodeToString([]byte("9:9:9:9")),     // too few fields
		base64.RawURLEncoding.EncodeToString([]byte("1:x:0:0:0:r")), // bad offset
	} {
		if _, err := decodeCursor(bad); err == nil {
			t.Fatalf("decodeCursor(%q) accepted", bad)
		}
	}
}

// FuzzDecodeCursor: a ?cursor= token is bytes from the client. Whatever
// it is, decodeCursor must not panic, and whatever it accepts,
// encodeCursor must re-encode into a token that decodes to the same
// cursor. Each input is tried as a token and, so the fuzzer reaches the
// field parser without guessing base64, as a token's decoded text.
func FuzzDecodeCursor(f *testing.F) {
	for _, c := range []readCursor{
		{version: 7, offset: 120, f: cfd.AnyVio()},
		{version: 1, offset: 0, f: cfd.VioFilter{Rule: "phi:with:colons", Attr: 3, MinID: 5, MaxID: 900}},
	} {
		tok := encodeCursor(c)
		raw, _ := base64.RawURLEncoding.DecodeString(tok)
		f.Add(tok)
		f.Add(string(raw))
	}
	for _, bad := range []string{"", "AAAA", "!!!", "9:9:9:9", "1:x:0:0:0:r", "1:0:-2:0:0:r", "+1:+0:-1:0:0:"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range []string{s, base64.RawURLEncoding.EncodeToString([]byte(s))} {
			c, err := decodeCursor(tok)
			if err != nil {
				continue
			}
			again, err := decodeCursor(encodeCursor(c))
			if err != nil || again != c {
				t.Fatalf("token %q decodes to %+v, which re-encodes to %+v (%v)", tok, c, again, err)
			}
		}
	})
}

// TestDumpStreamsWithTrailer: the dump is served chunked with the
// completion trailer, carries the pinned version, and its bytes are
// identical to the in-process buffered serialization at that version.
func TestDumpStreamsWithTrailer(t *testing.T) {
	s, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")
	applyOne(t, base, "s", "215", "PHI")

	resp, body := do(t, "GET", base+"/v1/sessions/s/dump", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Trailer.Get("X-Dump-Complete"); got != "true" {
		t.Fatalf("X-Dump-Complete trailer = %q, want \"true\"", got)
	}
	ver := resp.Header.Get("X-Session-Version")
	if ver == "" {
		t.Fatal("dump carries no X-Session-Version")
	}
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := h.sess.Dump(&want); err != nil {
		t.Fatal(err)
	}
	if cur := strconv.FormatUint(h.sess.Snapshot().Version, 10); cur != ver {
		t.Fatalf("version moved between dump (%s) and check (%s)", ver, cur)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("streamed dump differs from buffered serialization:\n%s\nvs\n%s", body, want.Bytes())
	}
}

// dyingResponse is a client that goes away mid-dump: its failAt-th body
// write fails, and it counts the writes it sees.
type dyingResponse struct {
	*httptest.ResponseRecorder
	failAt, writes int
}

func (d *dyingResponse) Write(p []byte) (int, error) {
	d.writes++
	if d.writes >= d.failAt {
		return 0, io.ErrClosedPipe
	}
	return d.ResponseRecorder.Write(p)
}

// TestDumpAbortsWhenTheClientGoesAway: a write error after the headers
// are out aborts the handler — no completion trailer, no clean end of the
// chunked body — at the block that failed, and the dump counts as not
// finished.
func TestDumpAbortsWhenTheClientGoesAway(t *testing.T) {
	s, ts := newTestService(t, Options{})
	resp, body := do(t, "POST", ts.URL+"/v1/sessions", CreateRequest{
		Name: "big", CFDs: tinyCFDs,
		BaseCSV: "AC,CT\n" + strings.Repeat("212,NYC\n", 40000), // 5 codec blocks
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	w := &dyingResponse{ResponseRecorder: httptest.NewRecorder(), failAt: 2}
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Errorf("handler ended with %v, want the http.ErrAbortHandler panic", r)
			}
		}()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/sessions/big/dump", nil))
	}()
	if w.writes != 2 {
		t.Errorf("the dead connection saw %d writes, want 2 (none after the failing one)", w.writes)
	}
	if got := w.Header().Get("X-Dump-Complete"); got != "" {
		t.Errorf("truncated dump carries X-Dump-Complete: %q", got)
	}
	if n := s.reg.dumpRows.Load(); n != 0 {
		t.Errorf("an aborted dump counted %d rows as dumped", n)
	}
}

// stdlibCSV is the oracle for a dump: header and records through
// encoding/csv's Writer.
func stdlibCSV(t *testing.T, header []string, recs [][]string) []byte {
	t.Helper()
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write(header)
	cw.WriteAll(recs)
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDumpWhileInterning: the row codec reads the dictionary's quoting
// flags through a snapshot taken as each dump starts, while the writer
// keeps interning. One reader dumps pinned views in process, one streams
// /dump, and the writer applies batches of new values — a quarter of them
// needing quotes, a quarter null — so the flag slice grows and moves under
// every snapshot. Each in-process dump must be encoding/csv's bytes over
// its view's rows; each streamed one must be encoding/csv's bytes over the
// records it parses to. (In CI's GOMAXPROCS=2 -race battery by its name.)
func TestDumpWhileInterning(t *testing.T) {
	s, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}
	var (
		stop            = make(chan struct{})
		readers         sync.WaitGroup
		inProc, streamd atomic.Int64
	)
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	readers.Add(2)
	go func() {
		defer readers.Done()
		for !stopped() {
			v, err := h.sess.ReadView()
			if err != nil {
				t.Error(err)
				return
			}
			var recs [][]string
			cur := v.Rows()
			for tu := cur.Next(); tu != nil; tu = cur.Next() {
				rec := make([]string, len(tu.Vals))
				for i, val := range tu.Vals {
					rec[i] = val.Str
					if val.Null {
						rec[i] = relation.NullLiteral
					}
				}
				recs = append(recs, rec)
			}
			var got bytes.Buffer
			err = v.WriteCSV(&got)
			v.Release()
			if want := stdlibCSV(t, v.Schema().Attrs(), recs); err != nil || !bytes.Equal(got.Bytes(), want) {
				t.Errorf("pinned dump of %d rows (error %v) differs from encoding/csv", len(recs), err)
				return
			}
			inProc.Add(1)
		}
	}()
	go func() {
		defer readers.Done()
		for !stopped() {
			resp, body := do(t, "GET", base+"/v1/sessions/s/dump", nil)
			recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
			if resp.StatusCode != http.StatusOK || err != nil || len(recs) == 0 {
				t.Errorf("streamed dump: %d, %v", resp.StatusCode, err)
				return
			}
			if want := stdlibCSV(t, recs[0], recs[1:]); !bytes.Equal(body, want) {
				t.Errorf("streamed dump of %d rows differs from encoding/csv", len(recs)-1)
				return
			}
			streamd.Add(1)
		}
	}()

	const perBatch = 150
	b := 0
	for ; b < 300 && (b < 30 || inProc.Load() < 3 || streamd.Load() < 3); b++ {
		var ar ApplyRequest
		for i := 0; i < perBatch; i++ {
			n := b*perBatch + i
			var ct *string
			switch n % 4 {
			case 0:
				ct = strp(fmt.Sprintf("a,\"b%d", n))
			case 1:
				ct = strp(fmt.Sprintf(" lead\n%d", n))
			case 2:
				ct = strp(fmt.Sprintf("ct%d", n))
			}
			ar.Inserts = append(ar.Inserts, WireTuple{Vals: []*string{strp(fmt.Sprintf("9%05d", n)), ct}})
		}
		if resp, body := do(t, "POST", base+"/v1/sessions/s/apply", ar); resp.StatusCode != http.StatusOK {
			t.Errorf("apply: %d: %s", resp.StatusCode, body)
			break
		}
	}
	close(stop)
	readers.Wait()
	t.Logf("%d pinned and %d streamed dumps beside %d batches", inProc.Load(), streamd.Load(), b)
	if !t.Failed() && (inProc.Load() < 3 || streamd.Load() < 3) {
		t.Fatal("want at least 3 of each")
	}
}

// TestCursorGoneAfterEviction: a cursor pinned at an old version is
// answered 410 once enough newer versions have rotated it out of the
// view cache; a cursor at the session's current version is always
// servable (it re-pins).
func TestCursorGoneAfterEviction(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")

	resp, _ := do(t, "GET", base+"/v1/sessions/s/violations", nil)
	v1, err := strconv.ParseUint(resp.Header.Get("X-Session-Version"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Advance the session past the cache cap: each read caches its own
	// version, and pruning keeps only the most recent idle views.
	for i := 0; i < maxCachedViews+1; i++ {
		applyOne(t, base, "s", fmt.Sprintf("6%02d", i), "NYC")
		do(t, "GET", base+"/v1/sessions/s/violations", nil)
	}

	tok := encodeCursor(readCursor{version: v1, f: cfd.AnyVio()})
	resp, body := do(t, "GET", base+"/v1/sessions/s/violations?cursor="+tok, nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale cursor: %d (want 410): %s", resp.StatusCode, body)
	}

	// The current version always works, cached or not.
	resp, _ = do(t, "GET", base+"/v1/sessions/s/violations", nil)
	cur := resp.Header.Get("X-Session-Version")
	curV, _ := strconv.ParseUint(cur, 10, 64)
	tok = encodeCursor(readCursor{version: curV, f: cfd.AnyVio()})
	resp, body = do(t, "GET", base+"/v1/sessions/s/violations?cursor="+tok, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("current-version cursor: %d: %s", resp.StatusCode, body)
	}
	var vr ViolationsResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Version != curV {
		t.Fatalf("cursor at %d served version %d", curV, vr.Version)
	}
}

// TestServerReadersRaceWriter is the service-level read/write battery:
// four goroutines page violation listings and two stream dumps while
// the writer applies batches. Every read must be internally consistent
// — dumps at the same pinned version byte-identical, trailers present,
// versions monotone per reader — and the final streamed dump must match
// the in-process buffered state. Run under -race.
func TestServerReadersRaceWriter(t *testing.T) {
	s, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "race")

	var (
		mu      sync.Mutex
		byVer   = map[string][]byte{}
		stop    = make(chan struct{})
		readers sync.WaitGroup
	)
	checkDump := func() error {
		resp, body := do(t, "GET", base+"/v1/sessions/race/dump", nil)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("dump: %d: %s", resp.StatusCode, body)
		}
		if resp.Trailer.Get("X-Dump-Complete") != "true" {
			return fmt.Errorf("dump missing completion trailer")
		}
		ver := resp.Header.Get("X-Session-Version")
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := byVer[ver]; ok {
			if !bytes.Equal(prev, body) {
				return fmt.Errorf("two dumps at version %s differ", ver)
			}
		} else {
			byVer[ver] = body
		}
		return nil
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := checkDump(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			queries := []string{"?limit=5", "?limit=3&rule=phi1", "?limit=7&attr=CT", "?limit=2&min_id=1&max_id=50"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := do(t, "GET", base+"/v1/sessions/race/violations"+queries[(g+i)%len(queries)], nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("violations: %d: %s", resp.StatusCode, body)
					return
				}
				var vr ViolationsResponse
				if err := json.Unmarshal(body, &vr); err != nil {
					t.Error(err)
					return
				}
				// The INCREPAIR invariant holds at every pinned version:
				// batches leave the session consistent.
				if vr.Total != 0 || len(vr.Violations) != 0 {
					t.Errorf("violations at version %d: total %d", vr.Version, vr.Total)
					return
				}
			}
		}(g)
	}

	for i := 0; i < 25; i++ {
		ct := "NYC"
		if i%3 == 0 {
			ct = "PHI" // dirty: repaired by the pass
		}
		applyOne(t, base, "race", "212", ct)
	}
	close(stop)
	readers.Wait()

	// Final streamed read equals the in-process buffered state.
	h, err := s.Registry().Get("race")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := h.sess.Dump(&want); err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, "GET", base+"/v1/sessions/race/dump", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("final streamed dump diverged (%d)", resp.StatusCode)
	}
	// Idle views may stay cached for cursor continuation, but never more
	// than the cap — and all of them must be releasable (no leaked refs).
	if n := h.sess.Current().ActiveViews(); n > maxCachedViews {
		t.Fatalf("ActiveViews = %d after readers stopped, want <= %d", n, maxCachedViews)
	}
	h.views.closeAll()
	if n := h.sess.Current().ActiveViews(); n != 0 {
		t.Fatalf("ActiveViews = %d after cache close, want 0 (leaked reader refs)", n)
	}
}

// sseClient consumes one SSE stream in the background, emitting
// (id, event) pairs parsed from the wire format.
type sseEvent struct {
	id uint64
	ev Event
}

func openSSE(t *testing.T, url, lastEventID string) (<-chan sseEvent, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events: %d", resp.StatusCode)
	}
	out := make(chan sseEvent, 64)
	go readSSE(resp.Body, out)
	return out, func() { resp.Body.Close() }
}

// readSSE parses an SSE body into out until the body ends, then closes
// out. It reads the next event only once out takes the last one.
func readSSE(body io.Reader, out chan<- sseEvent) {
	defer close(out)
	sc := bufio.NewScanner(body)
	var cur sseEvent
	for sc.Scan() {
		l := sc.Text()
		switch {
		case strings.HasPrefix(l, "id: "):
			cur.id, _ = strconv.ParseUint(strings.TrimPrefix(l, "id: "), 10, 64)
		case strings.HasPrefix(l, "data: "):
			if json.Unmarshal([]byte(strings.TrimPrefix(l, "data: ")), &cur.ev) == nil {
				out <- cur
			}
			cur = sseEvent{}
		}
	}
}

func collectSSE(t *testing.T, ch <-chan sseEvent, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	for len(out) < n {
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatalf("stream ended after %d/%d events", len(out), n)
			}
			out = append(out, e)
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d/%d events", len(out), n)
		}
	}
	return out
}

// TestSSEResumeFromLastEventID: a client that reconnects with the last
// journal version it saw receives exactly the missed tail — replayed
// from the event ring, no resync — and keeps receiving live events
// seamlessly past it.
func TestSSEResumeFromLastEventID(t *testing.T) {
	s, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")

	ch, cancel := openSSE(t, base+"/v1/sessions/s/events", "")
	for i := 0; i < 3; i++ {
		applyOne(t, base, "s", "212", "NYC")
	}
	got := collectSSE(t, ch, 3)
	cancel()
	lastID := got[2].id
	if lastID == 0 {
		t.Fatal("events carry no id")
	}

	// Offline: three more passes land in the ring.
	for i := 0; i < 3; i++ {
		applyOne(t, base, "s", "215", "NYC")
	}
	// The ring is written by the committer after the apply reply; wait
	// for it to catch up before resuming.
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.subs.mu.Lock()
		n := h.subs.ringN
		h.subs.mu.Unlock()
		if n >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring never saw the offline passes")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ch, cancel = openSSE(t, base+"/v1/sessions/s/events", strconv.FormatUint(lastID, 10))
	defer cancel()
	replay := collectSSE(t, ch, 3)
	for i, e := range replay {
		if e.id <= lastID {
			t.Fatalf("replayed event %d has id %d <= Last-Event-ID %d", i, e.id, lastID)
		}
		if e.ev.Resync {
			t.Fatalf("covered resume replayed a resync event: %+v", e.ev)
		}
		if e.ev.Seq != got[2].ev.Seq+uint64(i)+1 {
			t.Fatalf("replay gap: event %d has seq %d, want %d", i, e.ev.Seq, got[2].ev.Seq+uint64(i)+1)
		}
	}
	// Live continuation after the replayed tail.
	applyOne(t, base, "s", "212", "NYC")
	live := collectSSE(t, ch, 1)
	if live[0].ev.Seq != replay[2].ev.Seq+1 || live[0].ev.Resync {
		t.Fatalf("live event after replay: %+v", live[0].ev)
	}
}

// TestSSEResumeBeyondRing: when the ring no longer covers the client's
// Last-Event-ID, the replay degrades to resync semantics — the first
// replayed event is flagged, and its snapshot re-anchors the client.
func TestSSEResumeBeyondRing(t *testing.T) {
	s, ts := newTestService(t, Options{})
	base := ts.URL
	createTiny(t, base, "s")
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the replay ring before any event is published.
	h.subs.mu.Lock()
	h.subs.ringCap = 2
	h.subs.mu.Unlock()

	first := applyOne(t, base, "s", "212", "NYC")
	for i := 0; i < 4; i++ {
		applyOne(t, base, "s", "215", "NYC")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.subs.mu.Lock()
		evicted := h.subs.dropVersion >= first.Version
		h.subs.mu.Unlock()
		if evicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring never evicted the first pass")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ch, cancel := openSSE(t, base+"/v1/sessions/s/events", strconv.FormatUint(first.Version, 10))
	defer cancel()
	replay := collectSSE(t, ch, 2)
	if !replay[0].ev.Resync {
		t.Fatalf("uncovered resume: first replayed event not resync-flagged: %+v", replay[0].ev)
	}
	if replay[1].ev.Resync {
		t.Fatalf("resync flag leaked past the first replayed event: %+v", replay[1].ev)
	}
	if !replay[1].ev.Snapshot.Satisfied {
		t.Fatalf("replayed snapshot not authoritative: %+v", replay[1].ev.Snapshot)
	}
}

// stallResponse is an http.ResponseWriter whose body goes into a pipe and
// which a test can stall: while stall is held, a Write waits for it, as
// for a client that stopped reading once the socket buffers filled.
// waiting counts the Writes doing so.
type stallResponse struct {
	*io.PipeWriter
	hdr     http.Header
	stall   sync.Mutex
	waiting atomic.Int32
}

func (p *stallResponse) Header() http.Header { return p.hdr }
func (p *stallResponse) WriteHeader(int)     {}
func (p *stallResponse) Flush()              {}

func (p *stallResponse) Write(b []byte) (int, error) {
	p.waiting.Add(1)
	p.stall.Lock()
	p.stall.Unlock() //nolint:staticcheck // a gate, not a critical section
	p.waiting.Add(-1)
	return p.PipeWriter.Write(b)
}

// TestSSESlowSubscriberResyncs: a stream that stops reading while more
// than a ring's worth of passes land is overtaken. Reading again, it
// sends the event it was writing, then the retained tail with exactly its
// first event resync-flagged, then live events; both drop counters rise
// by the number of events it skipped.
func TestSSESlowSubscriberResyncs(t *testing.T) {
	s, ts := newTestService(t, Options{})
	createTiny(t, ts.URL, "s")
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	w := &stallResponse{PipeWriter: pw, hdr: http.Header{}}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest("GET", "/v1/sessions/s/events", nil).WithContext(ctx)
		s.Handler().ServeHTTP(w, req)
		pw.Close()
	}()
	defer func() { stop(); pr.Close(); <-served }()
	// Room for every event the test reads, so only the stall holds the
	// stream back.
	events := make(chan sseEvent, 2*eventRingSize)
	go readSSE(pr, events)
	// A stream opened without Last-Event-ID starts at the live tail: the
	// first pass must land after the handler has subscribed.
	waitFor(t, "the stream to subscribe", func() bool {
		h.subs.mu.Lock()
		defer h.subs.mu.Unlock()
		return h.subs.n == 1
	})

	applyOne(t, ts.URL, "s", "212", "NYC")
	if ev := collectSSE(t, events, 1)[0].ev; ev.Seq != 1 || ev.Resync {
		t.Fatalf("first event: %+v", ev)
	}
	// The stream stops reading in the middle of pass 2's event, then more
	// than a ring's worth of passes land.
	w.stall.Lock()
	applyOne(t, ts.URL, "s", "212", "NYC")
	waitFor(t, "the stream to write pass 2's event", func() bool { return w.waiting.Load() == 1 })
	global, local := s.reg.ops.sseDropped.Load(), h.ops.sseDropped.Load()
	const total = 2 + eventRingSize + 40
	for i := 2; i < total; i++ {
		applyOne(t, ts.URL, "s", "212", "NYC")
	}
	waitFor(t, "the ring to hold every pass", func() bool {
		h.subs.mu.Lock()
		defer h.subs.mu.Unlock()
		return h.subs.ringN == total
	})
	w.stall.Unlock()

	got := collectSSE(t, events, 1+eventRingSize)
	if got[0].ev.Seq != 2 || got[0].ev.Resync {
		t.Fatalf("the event the stream was writing: %+v", got[0].ev)
	}
	for i, e := range got[1:] {
		if want := uint64(total - eventRingSize + 1 + i); e.ev.Seq != want || e.ev.Resync != (i == 0) {
			t.Fatalf("tail event %d: seq %d resync %v, want seq %d resync %v", i, e.ev.Seq, e.ev.Resync, want, i == 0)
		}
	}
	skipped := uint64(total - eventRingSize - 2)
	if g, l := s.reg.ops.sseDropped.Load()-global, h.ops.sseDropped.Load()-local; g != skipped || l != skipped {
		t.Fatalf("drop counters rose by %d (service) and %d (session), want %d", g, l, skipped)
	}

	applyOne(t, ts.URL, "s", "212", "NYC")
	if ev := collectSSE(t, events, 1)[0].ev; ev.Seq != total+1 || ev.Resync {
		t.Fatalf("live event after the resync: %+v", ev)
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSSEResumeAcrossRestart: a session hosted again starts an empty
// ring, which covers only the passes after the version it was recovered
// at. A client that missed passes before the restart gets its next event
// resync-flagged; one that saw the last pass before it resumes without a
// flag; and an id past a re-created session's version is a gap too.
func TestSSEResumeAcrossRestart(t *testing.T) {
	opts := Options{DataDir: t.TempDir(), Fsync: FsyncOff}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createTiny(t, ts1.URL, "s")
	ch, cancel := openSSE(t, ts1.URL+"/v1/sessions/s/events", "")
	applyOne(t, ts1.URL, "s", "212", "NYC")
	applyOne(t, ts1.URL, "s", "212", "NYC")
	seen := collectSSE(t, ch, 2)[1].id
	cancel()
	// Two passes the client never sees.
	applyOne(t, ts1.URL, "s", "215", "NYC")
	last := applyOne(t, ts1.URL, "s", "215", "NYC").Version
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, ts2 := newTestService(t, opts)
	if n, err := s2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	events := ts2.URL + "/v1/sessions/s/events"
	missed, cancelMissed := openSSE(t, events, strconv.FormatUint(seen, 10))
	defer cancelMissed()
	caught, cancelCaught := openSSE(t, events, strconv.FormatUint(last, 10))
	defer cancelCaught()
	applyOne(t, ts2.URL, "s", "212", "NYC")
	if ev := collectSSE(t, missed, 1)[0].ev; !ev.Resync {
		t.Fatalf("resume at %d after passes up to %d were missed across a restart: %+v, want resync", seen, last, ev)
	}
	if ev := collectSSE(t, caught, 1)[0].ev; ev.Resync {
		t.Fatalf("resume at %d, the last version before the restart: %+v, want no resync", last, ev)
	}

	// Deleted and re-created: the old ids are past the new session's.
	if resp, body := do(t, "DELETE", ts2.URL+"/v1/sessions/s", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", resp.StatusCode, body)
	}
	createTiny(t, ts2.URL, "s")
	again, cancelAgain := openSSE(t, events, strconv.FormatUint(last, 10))
	defer cancelAgain()
	applyOne(t, ts2.URL, "s", "212", "NYC")
	if ev := collectSSE(t, again, 1)[0].ev; !ev.Resync {
		t.Fatalf("resume at %d on a re-created session at version %d: %+v, want resync", last, ev.Snapshot.Version, ev)
	}
}
