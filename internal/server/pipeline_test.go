package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/metrics"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// Pipeline tests: the durability ordering the worker/committer split must
// preserve — no batch is acknowledged before its WAL record is on stable
// storage, and none at all once the record cannot be made durable.
// (Adjacent-batch folding is TestCoalescing's.)

// TestFsyncBeforeAck: under the per-batch policy, with many sessions
// committing concurrently and several clients per session, no apply may
// be acknowledged before the WAL version it produced is on stable
// storage — even though the committer syncs each record while the
// worker is still running that record's pass.
func TestFsyncBeforeAck(t *testing.T) {
	for _, tc := range []struct{ sessions, clients int }{{4, 1}, {8, 4}} {
		t.Run(fmt.Sprintf("%dsessions_%dclients", tc.sessions, tc.clients), func(t *testing.T) {
			s := New(Options{QueueDepth: 8, DataDir: t.TempDir(), Fsync: FsyncBatch, SnapshotEvery: 5})
			reg := s.reg
			t.Cleanup(func() { s.Shutdown(context.Background()) })

			sch := relation.MustSchema("orders", "AC", "CT")
			hs := make([]*hosted, tc.sessions)
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
				if hs[i], err = reg.Create(fmt.Sprintf("g%d", i), sess, sch, wal.Quota{}); err != nil {
					t.Fatal(err)
				}
			}

			const perClient = 8
			errc := make(chan error, tc.sessions*tc.clients)
			var wg sync.WaitGroup
			for _, h := range hs {
				for c := 0; c < tc.clients; c++ {
					wg.Add(1)
					go func(h *hosted) {
						defer wg.Done()
						for k := 0; k < perClient; k++ {
							// Odd batches violate the rule and are repaired.
							ct := "NYC"
							if k%2 == 1 {
								ct = "PHI"
							}
							ins := []*relation.Tuple{relation.NewTuple(0, "212", ct)}
							rep, err := reg.Apply(context.Background(), h, nil, nil, ins)
							if err == nil {
								err = rep.err
							}
							if err != nil {
								errc <- err
								return
							}
							// The ack for version V happened-before this read;
							// the durable watermark must already cover V.
							if synced := h.pers.syncedVersion(); synced < rep.snap.Version {
								errc <- fmt.Errorf("session %s: acked version %d with synced watermark %d", h.name, rep.snap.Version, synced)
								return
							}
						}
					}(h)
				}
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			for _, h := range hs {
				if got, want := h.sess.Snapshot().Batches, tc.clients*perClient; got != want {
					t.Fatalf("session %s applied %d batches, want %d", h.name, got, want)
				}
			}
		})
	}
}

// walRecords reads every record of one WAL generation of a session.
func walRecords(t *testing.T, dir, name string, gen uint64) []*wal.Batch {
	t.Helper()
	l, batches, _, err := wal.Open(walPath(filepath.Join(dir, name), gen))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return batches
}

// dirImage reads every file under dir, keyed by its path relative to
// dir: two images are equal when the directory holds the same names with
// the same bytes.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		img[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// promValue reads one unlabelled series from GET /metrics.
func promValue(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := do(t, "GET", base+"/metrics", nil)
	return parseProm(t, string(body)).get(t, name).value
}

// TestRefusedBatchLeavesNoRecord: a batch Check refuses never runs a
// pass, so it writes nothing. The session directory stays byte-identical
// (no WAL record, no new generation), no pass is counted, the refusal
// counts once as an error batch, the next batch's record follows the
// last one in the same WAL, and a reboot lands on the live dump. The
// wire decoder answers 400 to every insert Check could refuse, so the
// refused ingest goes to the registry directly.
func TestRefusedBatchLeavesNoRecord(t *testing.T) {
	refusals := []struct {
		name   string
		refuse func(t *testing.T, s *Server, base string)
	}{
		{"apply", func(t *testing.T, _ *Server, base string) {
			resp, body := do(t, "POST", base+"/v1/sessions/t/apply", ApplyRequest{Deletes: []int64{99999}})
			if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "delete of unknown tuple id 99999") {
				t.Fatalf("bad delete: %d: %s", resp.StatusCode, body)
			}
		}},
		{"ingest", func(t *testing.T, s *Server, _ string) {
			h, err := s.reg.Get("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.reg.Ingest(h, []*relation.Tuple{{Vals: []relation.Value{relation.S("212")}}}); err != nil {
				t.Fatalf("ingest of a short tuple refused at the door: %v", err)
			}
			if !h.waitQuiesce(t.Context()) {
				t.Fatal("the pipeline did not drain")
			}
		}},
	}
	for _, rc := range refusals {
		t.Run(rc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{DataDir: dir, Fsync: FsyncBatch, SnapshotEvery: 1 << 20, QueueDepth: 8}
			s1 := New(opts)
			ts1 := httptest.NewServer(s1.Handler())
			createRecovery(t, ts1.URL, "t")
			applyRecovery(t, ts1.URL, "t", 1)
			before := dirImage(t, dir)
			passes := promValue(t, ts1.URL, "cfdserved_passes_total")
			errs := promValue(t, ts1.URL, "cfdserved_error_batches_total")

			rc.refuse(t, s1, ts1.URL)
			if after := dirImage(t, dir); !maps.Equal(before, after) {
				t.Fatalf("the refused batch changed the session directory:\nbefore: %v\nafter:  %v", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
			}
			if n := promValue(t, ts1.URL, "cfdserved_passes_total"); n != passes {
				t.Fatalf("cfdserved_passes_total %g -> %g across a refused batch", passes, n)
			}
			if n := promValue(t, ts1.URL, "cfdserved_error_batches_total"); n != errs+1 {
				t.Fatalf("cfdserved_error_batches_total %g -> %g, want one more", errs, n)
			}

			applyRecovery(t, ts1.URL, "t", 2)
			if recs := walRecords(t, dir, "t", 0); len(recs) != 2 || recs[1].PrevVersion != recs[0].Version {
				t.Fatalf("generation 0 records %+v: want the two accepted batches, chained", recs)
			}
			want, _, _ := sessionState(t, ts1.URL, "t")
			shutdownService(t, s1, ts1)
			s2, ts2 := newTestService(t, opts)
			if n, err := s2.Recover(); err != nil || n != 1 {
				t.Fatalf("recover: n=%d err=%v", n, err)
			}
			if got, _, _ := sessionState(t, ts2.URL, "t"); !bytes.Equal(want, got) {
				t.Fatalf("reboot diverged from the live session\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestBrokenPersisterRefusesWrites: a durable session whose persister is
// marked broken answers /apply with 503 and its dump is unchanged; a
// batch whose record cannot be appended is answered 503, not 200. Either
// way the session then refuses every write, /ingest included, at the
// door, while the listing and /metrics say what happened.
func TestBrokenPersisterRefusesWrites(t *testing.T) {
	for _, tc := range []struct {
		name     string
		breakIt  func(p *persister)
		passRuns bool // the first refused batch's pass still ran
	}{
		{"marked", func(p *persister) { p.markBroken(errors.New("disk on fire")) }, false},
		{"append fails", func(p *persister) {
			p.mu.Lock()
			p.log.Close() // the next append fails
			p.mu.Unlock()
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestService(t, Options{DataDir: t.TempDir(), Fsync: FsyncBatch, QueueDepth: 8})
			createRecovery(t, ts.URL, "t")
			applyRecovery(t, ts.URL, "t", 1)
			h, err := s.reg.Get("t")
			if err != nil {
				t.Fatal(err)
			}
			apply := func(i int) {
				t.Helper()
				resp, body := do(t, "POST", ts.URL+"/v1/sessions/t/apply", ApplyRequest{Inserts: []WireTuple{
					{Vals: []*string{strp("212"), strp(fmt.Sprintf("666%04d", i)), strp("NYC"), strp("NY"), strp("10012")}},
				}})
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("apply %d: %d: %s, want 503", i, resp.StatusCode, body)
				}
			}
			before, _, _ := sessionState(t, ts.URL, "t")
			tc.breakIt(h.pers)
			apply(2)
			if after, _, _ := sessionState(t, ts.URL, "t"); !tc.passRuns && !bytes.Equal(before, after) {
				t.Fatalf("a refused write changed the dump:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			before, _, _ = sessionState(t, ts.URL, "t")
			apply(3)
			apply(4)
			batches := promValue(t, ts.URL, "cfdserved_batches_total")
			resp, body := do(t, "POST", ts.URL+"/v1/sessions/t/ingest", ApplyRequest{Inserts: []WireTuple{
				{Vals: []*string{strp("212"), strp("6669999"), strp("NYC"), strp("NY"), strp("10012")}},
			}})
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("ingest: %d: %s, want 503", resp.StatusCode, body)
			}
			if n := promValue(t, ts.URL, "cfdserved_batches_total"); n != batches {
				t.Fatalf("cfdserved_batches_total %g -> %g: a refused ingest was accepted", batches, n)
			}
			if after, _, _ := sessionState(t, ts.URL, "t"); !bytes.Equal(before, after) {
				t.Fatalf("a write on a broken session changed the dump:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			_, body = do(t, "GET", ts.URL+"/v1/sessions/t", nil)
			if !strings.Contains(string(body), `"persist":"error: `) {
				t.Fatalf("listing does not name the failure: %s", body)
			}
			_, body = do(t, "GET", ts.URL+"/metrics", nil)
			if !strings.Contains(string(body), `cfdserved_session_persist_broken{session="t"} 1`) {
				t.Fatal("/metrics does not show the broken session")
			}
		})
	}
}

// TestBrokenPersisterAbortsCapture: a boundary the worker captured for a
// rotation the committer cannot anchor — the batch's append failed and
// broke the persister — is aborted, not dropped. The batch is answered
// 503 (ErrNotDurable); the view the capture pinned is released, and the
// store's committed generation and the count of pages its last flush
// wrote do not move, so the next flush to commit writes this one's pages.
func TestBrokenPersisterAbortsCapture(t *testing.T) {
	s, ts := newTestService(t, Options{DataDir: t.TempDir(), Fsync: FsyncBatch, QueueDepth: 8, SnapshotEvery: 1})
	createRecovery(t, ts.URL, "t")
	h, err := s.reg.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	before := h.pers.st.Stats()
	h.pers.mu.Lock()
	h.pers.log.Close() // the next append fails
	h.pers.mu.Unlock()
	_, err = s.reg.Apply(t.Context(), h, nil, nil, []*relation.Tuple{relation.NewTuple(0, "212", "6660001", "NYC", "NY", "10012")})
	if !errors.Is(err, ErrNotDurable) {
		t.Fatalf("apply on a closed log: %v, want ErrNotDurable", err)
	}
	if n := h.sess.Current().ActiveViews(); n != 0 {
		t.Fatalf("%d views still pinned after the rotation was aborted", n)
	}
	if st := h.pers.st.Stats(); st.Gen != before.Gen || st.FlushPages != before.FlushPages {
		t.Fatalf("the aborted flush moved the store: %+v, before %+v", st, before)
	}
}

// TestSubscriberDropResync: a stream that stops reading is overtaken once
// more than a ring's worth of passes land. It then reads the retained
// tail, whose first event carries resync: true, the events it skipped
// count as drops, and it continues with unflagged live events.
func TestSubscriberDropResync(t *testing.T) {
	var drops metrics.Counter
	s := subscribers{drops: &drops}
	c, err := s.open(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()

	for i := 1; i <= eventRingSize+1; i++ {
		s.publish(Event{Seq: uint64(i)})
	}
	evs, _ := s.since(&c)
	if len(evs) != eventRingSize || evs[0].Seq != 2 || !evs[0].Resync {
		t.Fatalf("overtaken stream read %d events starting %+v, want %d from seq 2 with resync", len(evs), evs[0], eventRingSize)
	}
	for _, ev := range evs[1:] {
		if ev.Resync {
			t.Fatalf("event %d after the first flagged resync", ev.Seq)
		}
	}
	if drops.Load() != 1 {
		t.Fatalf("drop counter = %d, want 1", drops.Load())
	}
	s.publish(Event{Seq: eventRingSize + 2})
	if evs, _ := s.since(&c); len(evs) != 1 || evs[0].Resync || evs[0].Seq != eventRingSize+2 {
		t.Fatalf("live event after the gap = %+v, want one unflagged", evs)
	}
}

// TestPublishAsync: publish never blocks the committer, even with a
// connected stream that waits and never reads: it appends to the ring and
// wakes the stream, nothing more.
func TestPublishAsync(t *testing.T) {
	var drops metrics.Counter
	s := subscribers{drops: &drops}
	c, err := s.open(0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	_, wake := s.since(&c)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10*eventRingSize; i++ {
			s.publish(Event{Seq: uint64(i + 1)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked behind a stream that does not read")
	}
	select {
	case <-wake:
	default:
		t.Fatal("the waiting stream was not woken")
	}
	s.mu.Lock()
	n := len(s.ring)
	s.mu.Unlock()
	if n != eventRingSize {
		t.Fatalf("ring holds %d events, want %d", n, eventRingSize)
	}
}

// syncedVersion reports the newest journal version known to be on
// stable storage — what the fsync-before-ack test asserts against: under
// the per-batch policy no acknowledged version may exceed it.
func (p *persister) syncedVersion() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.synced
}
