package server

import (
	"testing"

	"cfdclean/internal/metrics"
)

// Deterministic unit tests for the replay ring's eviction boundary —
// the off-by-one surface of Last-Event-ID resume. dropVersion is the
// version of the NEWEST event ever evicted, so a resume id equal to it
// is still fully covered (the client saw that event before it was
// evicted); only an id strictly below it has lost part of its tail.

// ringEv builds the minimal event the ring logic cares about.
func ringEv(seq, version uint64) Event {
	return Event{Seq: seq, Snapshot: WireSnapshot{Version: version}}
}

// ringFixture publishes four passes (versions 10,20,30,40) through a
// two-slot ring, evicting versions 10 and 20.
func ringFixture(t *testing.T) *subscribers {
	t.Helper()
	s := &subscribers{ringCap: 2}
	t.Cleanup(s.closeAll)
	for i := uint64(1); i <= 4; i++ {
		s.publish(ringEv(i, 10*i))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropVersion != 20 {
		t.Fatalf("dropVersion = %d, want 20 (newest evicted)", s.dropVersion)
	}
	return s
}

func resumeAt(t *testing.T, s *subscribers, lastID uint64) []Event {
	t.Helper()
	_, replay, cancel, err := s.subscribeFrom(lastID, true)
	if err != nil {
		t.Fatalf("subscribeFrom(%d): %v", lastID, err)
	}
	cancel()
	return replay
}

func versions(evs []Event) []uint64 {
	var out []uint64
	for _, ev := range evs {
		out = append(out, ev.Snapshot.Version)
	}
	return out
}

func TestRingResumeAtDropBoundary(t *testing.T) {
	s := ringFixture(t)
	// lastID == dropVersion: the client saw version 20 before its
	// eviction, so the retained tail {30,40} IS its missing suffix — a
	// clean replay, no resync.
	replay := resumeAt(t, s, 20)
	if got := versions(replay); len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Fatalf("replay at boundary = %v, want [30 40]", got)
	}
	for i, ev := range replay {
		if ev.Resync {
			t.Fatalf("boundary resume must not resync (event %d)", i)
		}
	}
}

func TestRingResumeBelowDropBoundary(t *testing.T) {
	s := ringFixture(t)
	// lastID one below dropVersion: version 20 was evicted unseen, so
	// the gap is real — full retained tail, first event resync-flagged.
	for _, lastID := range []uint64{19, 10, 1} {
		replay := resumeAt(t, s, lastID)
		if got := versions(replay); len(got) != 2 || got[0] != 30 || got[1] != 40 {
			t.Fatalf("replay at %d = %v, want [30 40]", lastID, got)
		}
		if !replay[0].Resync {
			t.Fatalf("resume at %d lost events but first replay is not resync-flagged", lastID)
		}
		if replay[1].Resync {
			t.Fatalf("resume at %d flagged more than the first event", lastID)
		}
	}
}

func TestRingResumeIsExclusiveOfLastSeen(t *testing.T) {
	s := ringFixture(t)
	// The tail is strictly newer than lastID: resuming at a retained
	// version must not replay that version again.
	if got := versions(resumeAt(t, s, 30)); len(got) != 1 || got[0] != 40 {
		t.Fatalf("replay at 30 = %v, want [40]", got)
	}
	// Resuming at the newest version replays nothing — and must NOT be
	// treated as a drop.
	_, replay, cancel, err := s.subscribeFrom(40, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if len(replay) != 0 {
		t.Fatalf("replay at head = %v, want empty", versions(replay))
	}
	s.mu.Lock()
	var sub *subscriber
	for _, v := range s.m {
		sub = v
	}
	s.mu.Unlock()
	if sub == nil || sub.dropped {
		t.Fatal("caught-up resumer must not be marked dropped")
	}
}

func TestRingResumeEmptyRing(t *testing.T) {
	s := &subscribers{ringCap: 2}
	t.Cleanup(s.closeAll)
	// Resume against a session that has not published since the ring was
	// created: nothing to replay, and nothing to resync either —
	// dropVersion is 0, so any lastID is "covered" vacuously.
	_, replay, cancel, err := s.subscribeFrom(7, true)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if len(replay) != 0 {
		t.Fatalf("empty-ring resume replayed %v", versions(replay))
	}
}

// TestRingReplayFencesLiveDelivery: the afterSeq fence set at subscribe
// time must make deliver skip passes the replay already covered, and
// admit the first genuinely new pass.
func TestRingReplayFencesLiveDelivery(t *testing.T) {
	s := ringFixture(t)
	ch, replay, cancel, err := s.subscribeFrom(30, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if got := versions(replay); len(got) != 1 || got[0] != 40 {
		t.Fatalf("replay = %v, want [40]", got)
	}
	// Seq 4 (version 40) is in the replay; a late fanout delivery of the
	// same pass must be suppressed.
	s.deliver(ringEv(4, 40))
	select {
	case fr := <-ch:
		t.Fatalf("fenced event delivered: version %d", fr.version)
	default:
	}
	// The next pass flows through.
	s.deliver(ringEv(5, 50))
	select {
	case fr := <-ch:
		if fr.version != 50 {
			t.Fatalf("live event version = %d, want 50", fr.version)
		}
	default:
		t.Fatal("live event past the fence was not delivered")
	}
}

// TestRingDropCountersBothSinks: a slow subscriber's dropped events
// count on the per-session counter and, through it, the registry-wide
// total alike.
func TestRingDropCountersBothSinks(t *testing.T) {
	var global metrics.Counter
	local := global.Child()
	s := &subscribers{ringCap: 2, drops: local}
	t.Cleanup(s.closeAll)
	ch, _, cancel, err := s.subscribeFrom(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Fill the subscriber buffer without reading, then one more: the
	// overflow event is dropped and counted once on each sink.
	for i := uint64(1); i <= subscriberBuffer+1; i++ {
		s.deliver(ringEv(i, i))
	}
	if g, l := global.Load(), local.Load(); g != 1 || l != 1 {
		t.Fatalf("drop counters global=%d local=%d, want 1/1", g, l)
	}
	// The gap is announced: after draining, the next delivered event is
	// resync-flagged and the counters do not double-count it.
	for i := 0; i < subscriberBuffer; i++ {
		<-ch
	}
	s.deliver(ringEv(subscriberBuffer+2, subscriberBuffer+2))
	fr := <-ch
	if len(fr.data) == 0 {
		t.Fatal("no data on post-drop event")
	}
	if g := global.Load(); g != 1 {
		t.Fatalf("post-drop delivery bumped the counter to %d", g)
	}
}
