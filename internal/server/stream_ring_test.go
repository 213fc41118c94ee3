package server

import (
	"testing"

	"cfdclean/internal/metrics"
)

// Deterministic unit tests for the event ring's eviction boundary —
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

// resumeAt opens a stream resuming after lastID and returns its cursor
// and what it reads first.
func resumeAt(t *testing.T, s *subscribers, lastID uint64) (*cursor, []Event) {
	t.Helper()
	c, err := s.open(lastID, true)
	if err != nil {
		t.Fatalf("open(%d): %v", lastID, err)
	}
	t.Cleanup(s.close)
	evs, _ := s.since(&c)
	return &c, evs
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
	_, replay := resumeAt(t, s, 20)
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
		_, replay := resumeAt(t, s, lastID)
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
	if _, replay := resumeAt(t, s, 30); len(replay) != 1 || replay[0].Snapshot.Version != 40 {
		t.Fatalf("replay at 30 = %v, want [40]", versions(replay))
	}
	// Resuming at the newest version replays nothing — and must NOT be
	// treated as a gap: the next pass arrives unflagged.
	c, replay := resumeAt(t, s, 40)
	if len(replay) != 0 {
		t.Fatalf("replay at head = %v, want empty", versions(replay))
	}
	if c.resync {
		t.Fatal("caught-up resumer must not be marked for resync")
	}
	s.publish(ringEv(5, 50))
	if evs, _ := s.since(c); len(evs) != 1 || evs[0].Resync {
		t.Fatalf("caught-up resumer's next event = %+v, want one unflagged", evs)
	}
}

// TestRingResumeEmptyRing: a session just hosted (created, recovered or
// installed as a replica) at version 7 has published nothing. Its ring
// covers exactly the passes after 7: a resume at 7 misses nothing, while
// a resume below 7 (passes before a restart) or above it (a deleted and
// re-created name) has a gap the next event must announce.
func TestRingResumeEmptyRing(t *testing.T) {
	s := &subscribers{ringCap: 2, dropVersion: 7}
	at := map[uint64]*cursor{}
	for _, lastID := range []uint64{7, 5, 9} {
		c, replay := resumeAt(t, s, lastID)
		if len(replay) != 0 {
			t.Fatalf("empty-ring resume at %d replayed %v", lastID, versions(replay))
		}
		at[lastID] = c
	}
	s.publish(ringEv(1, 8))
	for lastID, want := range map[uint64]bool{7: false, 5: true, 9: true} {
		evs, _ := s.since(at[lastID])
		if len(evs) != 1 || evs[0].Snapshot.Version != 8 || evs[0].Resync != want {
			t.Fatalf("resume at %d: first event %+v, want version 8 with resync %v", lastID, evs, want)
		}
	}
}

// TestRingReplayFencesLiveDelivery: a resumed stream reads its replay and
// then the live events from one cursor, so the pass that ended the replay
// is not sent again and the first genuinely new pass is.
func TestRingReplayFencesLiveDelivery(t *testing.T) {
	s := ringFixture(t)
	c, replay := resumeAt(t, s, 30)
	if got := versions(replay); len(got) != 1 || got[0] != 40 {
		t.Fatalf("replay = %v, want [40]", got)
	}
	evs, wake := s.since(c)
	if len(evs) != 0 {
		t.Fatalf("replayed event delivered again: %v", versions(evs))
	}
	s.publish(ringEv(5, 50))
	select {
	case <-wake:
	default:
		t.Fatal("publish did not wake the waiting stream")
	}
	if evs, _ := s.since(c); len(evs) != 1 || evs[0].Snapshot.Version != 50 || evs[0].Resync {
		t.Fatalf("live event past the replay = %+v, want version 50 unflagged", evs)
	}
}

// TestRingDropCountersBothSinks: the events a slow stream skipped count on
// the per-session counter and, through it, the registry-wide total alike,
// once each.
func TestRingDropCountersBothSinks(t *testing.T) {
	var global metrics.Counter
	local := global.Child()
	s := &subscribers{ringCap: 2, drops: local}
	c, err := s.open(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// Five passes past a stream that reads none: the ring keeps the last
	// two, so three were skipped.
	for i := uint64(1); i <= 5; i++ {
		s.publish(ringEv(i, i))
	}
	evs, _ := s.since(&c)
	if got := versions(evs); len(got) != 2 || got[0] != 4 || !evs[0].Resync || evs[1].Resync {
		t.Fatalf("overtaken stream read %+v, want versions [4 5] with only the first flagged", evs)
	}
	if g, l := global.Load(), local.Load(); g != 3 || l != 3 {
		t.Fatalf("drop counters global=%d local=%d, want 3/3", g, l)
	}
	// Caught up again: the next event is unflagged and counts nothing.
	s.publish(ringEv(6, 6))
	if evs, _ := s.since(&c); len(evs) != 1 || evs[0].Resync {
		t.Fatalf("post-gap event = %+v, want one unflagged", evs)
	}
	if g := global.Load(); g != 3 {
		t.Fatalf("post-gap delivery moved the counter to %d", g)
	}
}
