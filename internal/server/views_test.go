package server

import (
	"testing"
	"time"
)

// newTTLTestService hosts the tiny session "s" with the given view TTL
// and returns its base URL, its handle and a count of its pinned views.
func newTTLTestService(t *testing.T, ttl time.Duration) (string, *hosted, func() int) {
	t.Helper()
	s, ts := newTestService(t, Options{})
	createTiny(t, ts.URL, "s")
	h, err := s.Registry().Get("s")
	if err != nil {
		t.Fatal(err)
	}
	h.views.mu.Lock()
	h.views.ttl = ttl
	h.views.mu.Unlock()
	return ts.URL, h, func() int { return h.sess.Current().ActiveViews() }
}

// An idle cached view is released by the first pass after its TTL with
// no further reads: the committer's prune, not the next reader, drops
// the pin. Nothing releases it before that pass, and closeAll leaves no
// pin behind.
func TestViewTTLSweepsWithoutTraffic(t *testing.T) {
	const ttl = 200 * time.Millisecond
	url, h, active := newTTLTestService(t, ttl)

	// A finished listing keeps its view cached for cursor continuation.
	if resp, body := do(t, "GET", url+"/v1/sessions/s/violations", nil); resp.StatusCode != 200 {
		t.Fatalf("violations: %d: %s", resp.StatusCode, body)
	}
	if n := active(); n != 1 {
		t.Fatalf("ActiveViews = %d after a listing, want 1 (cached for cursors)", n)
	}
	// Past the TTL with no pass and no read: still pinned.
	time.Sleep(3 * ttl)
	if n := active(); n != 1 {
		t.Fatalf("ActiveViews = %d past the TTL before any pass, want 1", n)
	}
	// The committer prunes after a pass's reply, and passes commit in
	// order: once the second reply is in, the first pass's prune is done.
	applyOne(t, url, "s", "212", "NYC")
	applyOne(t, url, "s", "212", "NYC")
	if n := active(); n != 0 {
		t.Fatalf("ActiveViews = %d after the first pass past the TTL, want 0", n)
	}
	h.views.mu.Lock()
	cached := len(h.views.views)
	h.views.mu.Unlock()
	if cached != 0 {
		t.Fatalf("view table holds %d entries after the prune, want 0", cached)
	}
	h.views.closeAll()
	if n := active(); n != 0 {
		t.Fatalf("ActiveViews = %d after closeAll, want 0", n)
	}
}

// A view a reader still holds survives the pass that releases an idle
// one — the TTL applies to idle views only — and closeAll releases it.
func TestViewTTLSweepSkipsHeldViews(t *testing.T) {
	const ttl = 200 * time.Millisecond
	url, h, active := newTTLTestService(t, ttl)

	// An idle view at the first version.
	if resp, body := do(t, "GET", url+"/v1/sessions/s/violations", nil); resp.StatusCode != 200 {
		t.Fatalf("violations: %d: %s", resp.StatusCode, body)
	}
	// A held view at the next version.
	applyOne(t, url, "s", "212", "NYC")
	_, release, err := h.views.acquireCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if n := active(); n != 2 {
		t.Fatalf("ActiveViews = %d with one idle and one held view, want 2", n)
	}

	time.Sleep(3 * ttl)
	applyOne(t, url, "s", "212", "NYC")
	applyOne(t, url, "s", "212", "NYC")
	if n := active(); n != 1 {
		t.Fatalf("ActiveViews = %d after the first pass past the TTL, want 1 (the held view)", n)
	}
	release()
	if n := active(); n != 1 {
		t.Fatalf("ActiveViews = %d just after release, want 1 (cached for cursors)", n)
	}
	h.views.closeAll()
	if n := active(); n != 0 {
		t.Fatalf("ActiveViews = %d after closeAll, want 0", n)
	}
}
