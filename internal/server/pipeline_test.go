package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/metrics"
	"cfdclean/internal/relation"
)

// Pipeline tests: the durability ordering the committer/group-fsync
// split must preserve — no batch is acknowledged before its WAL record
// is on stable storage. (Adjacent-batch folding is TestCoalescing's.)

// TestGroupFsyncOrdering: under the per-batch policy with many sessions
// committing concurrently — the group-fsync window at work — no apply
// may be acknowledged before the WAL version it produced is on stable
// storage. This is the fsync-before-ack invariant the pipelined
// committer must not weaken.
func TestGroupFsyncOrdering(t *testing.T) {
	s := New(Options{QueueDepth: 8, DataDir: t.TempDir(), Fsync: FsyncBatch})
	reg := s.reg
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	const sessions = 4
	sch := relation.MustSchema("orders", "AC", "CT")
	hs := make([]*hosted, sessions)
	for i := range hs {
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
		h, err := reg.Create(fmt.Sprintf("g%d", i), sess, sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}

	const perSession = 16
	errc := make(chan error, sessions)
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *hosted) {
			defer wg.Done()
			for k := 0; k < perSession; k++ {
				ins := []*relation.Tuple{relation.NewTuple(0, "212", "NYC")}
				rep, err := reg.Apply(context.Background(), h, nil, nil, ins)
				if err != nil {
					errc <- err
					return
				}
				if rep.err != nil {
					errc <- rep.err
					return
				}
				// The ack for version V happened-before this read; the
				// durable watermark must already cover V.
				if synced := h.pers.syncedVersion(); synced < rep.snap.Version {
					errc <- fmt.Errorf("session %s: acked version %d with synced watermark %d", h.name, rep.snap.Version, synced)
					return
				}
			}
			errc <- nil
		}(h)
	}
	wg.Wait()
	for range hs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubscriberDropResync: a subscriber that stops reading has events
// dropped (counted registry-wide), and the first event it receives
// after the gap carries resync: true.
func TestSubscriberDropResync(t *testing.T) {
	var drops metrics.Counter
	s := subscribers{drops: &drops}
	ch, cancel := s.subscribe()
	defer cancel()
	defer s.closeAll()

	for i := 0; i < subscriberBuffer; i++ {
		s.deliver(Event{Seq: uint64(i + 1)})
	}
	s.deliver(Event{Seq: 100}) // buffer full: dropped, gap recorded
	if drops.Load() != 1 {
		t.Fatalf("drop counter = %d, want 1", drops.Load())
	}
	<-ch // reader catches up by one
	s.deliver(Event{Seq: 101})

	var last Event
	for i := 0; i < subscriberBuffer; i++ {
		fr := <-ch
		last = Event{}
		if err := json.Unmarshal(fr.data, &last); err != nil {
			t.Fatal(err)
		}
		if last.Seq < 100 && last.Resync {
			t.Fatalf("pre-gap event %d flagged resync", last.Seq)
		}
	}
	if last.Seq != 101 || !last.Resync {
		t.Fatalf("post-gap event = %+v, want seq 101 with resync", last)
	}
}

// TestPublishAsync: publish never blocks the caller even when no one
// drains the fanout queue, and the whole stream shuts down cleanly.
func TestPublishAsync(t *testing.T) {
	var drops metrics.Counter
	s := subscribers{drops: &drops}
	_, cancel := s.subscribe()
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10*fanoutBuffer; i++ {
			s.publish(Event{Seq: uint64(i + 1)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a saturated stream")
	}
	s.closeAll()
	if s.fanDone != nil {
		<-s.fanDone // closeAll already waited; must not hang either way
	}
}
