package ship_test

// Fault-injection battery: a faultConn sits between the primary's
// Shipper and an in-process follower and misbehaves like a real
// network — dropping frames, duplicating them, reordering them, and
// tearing them mid-byte. The properties under test are the tentpole's
// safety invariants: the follower detects every gap through the
// version cursor, NEVER applies a batch out of order (its version is
// monotone non-decreasing no matter what the wire does), skips
// duplicates idempotently, and converges to the primary's exact state
// because the shipper heals every refusal with a snapshot resync.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"cfdclean/internal/cluster/ship"
	"cfdclean/internal/increpair"
	"cfdclean/internal/wal"
)

// faultConn wraps a LocalTransport and injures batch frames according
// to mode. Snapshot installs always pass — the healing channel has to
// work for the battery to prove convergence, and in production a
// snapshot that fails to install just repeats the resync.
type faultConn struct {
	inner *ship.LocalTransport
	mode  string
	arm   bool // faults fire only while armed
	n     int  // batch send counter

	held *wal.Batch // reorder: the delayed frame

	// versions is the follower's version after every delivery attempt —
	// the monotonicity trace that proves no out-of-order apply.
	versions []uint64
}

func (f *faultConn) ShipSnapshot(name string, snap *wal.Snapshot) error {
	err := f.inner.ShipSnapshot(name, snap)
	f.observe(name)
	return err
}

func (f *faultConn) observe(name string) {
	if r := f.inner.Replica(name); r != nil {
		f.versions = append(f.versions, r.Version())
	}
}

func (f *faultConn) deliver(name string, b *wal.Batch) error {
	err := f.inner.ShipBatch(name, b)
	f.observe(name)
	return err
}

// deliverTorn ships a frame whose tail was cut off in flight. The
// follower's frame codec must reject it before any state changes.
func (f *faultConn) deliverTorn(name string, b *wal.Batch) error {
	frame := ship.EncodeBatchFrame(b)
	_, err := ship.ReadBatchFrame(bytes.NewReader(frame[:len(frame)-3]))
	f.observe(name)
	if err == nil {
		return fmt.Errorf("torn frame decoded cleanly")
	}
	return err // the sender sees the broken connection
}

func (f *faultConn) ShipBatch(name string, b *wal.Batch) error {
	f.n++
	if !f.arm {
		return f.deliver(name, b)
	}
	switch f.mode {
	case "drop":
		if f.n%3 == 0 {
			// Lost in flight; the sender believes it was delivered.
			return nil
		}
	case "dup":
		if f.n%3 == 0 {
			if err := f.deliver(name, b); err != nil {
				return err
			}
			return f.deliver(name, b)
		}
	case "reorder":
		if f.held == nil && f.n%4 == 0 {
			f.held = b // delay this frame...
			return nil
		}
		if f.held != nil {
			held := f.held
			f.held = nil
			err := f.deliver(name, b) // ...the newer frame overtakes it,
			_ = f.deliver(name, held) // then the stale one finally lands.
			return err
		}
	case "truncate":
		if f.n%3 == 0 {
			return f.deliverTorn(name, b)
		}
	}
	return f.deliver(name, b)
}

// TestFaultInjection drives a primary through random batches with each
// fault mode armed for the middle of the run, then requires exact
// convergence, a monotone follower version trace, and the healing
// evidence each mode predicts.
func TestFaultInjection(t *testing.T) {
	for _, mode := range []string{"drop", "dup", "reorder", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			const name = "faulty"
			live, err := increpair.NewSession(batteryBase(t, true), batteryCFDs(t, batterySchema()),
				&increpair.Options{Ordering: increpair.Linear})
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()

			lt := ship.NewLocalTransport(2)
			defer lt.Close()
			fc := &faultConn{inner: lt, mode: mode}
			sp := ship.NewShipper(name, fc, func() (*wal.Snapshot, error) {
				return live.PersistSnapshot(name)
			}, ship.Counters{})
			defer sp.Close()

			rng := rand.New(rand.NewSource(61))
			const nBatches = 12
			var shipErrs int
			for b := 0; b < nBatches; b++ {
				// Arm faults for the middle of the run; the last batches
				// ship cleanly so the synchronous heal settles the state.
				fc.arm = b >= 2 && b < nBatches-2
				deletes, sets, inserts := randomOps(rng, live.Current())
				prev := live.Snapshot().Version
				if _, _, err := live.ApplyOps(deletes, sets, inserts); err != nil {
					t.Fatal(err)
				}
				batch := &wal.Batch{
					PrevVersion: prev,
					Version:     live.Snapshot().Version,
					Ops:         increpair.OpsToDeltas(deletes, sets, inserts),
				}
				// ack=quorum path: delivery failures surface here, heal
				// inside the same call or on the next one — never fatal.
				if err := sp.ShipSync(batch); err != nil {
					shipErrs++
				}
			}

			rep := lt.Replica(name)
			if rep == nil {
				t.Fatal("follower never bootstrapped")
			}
			requireEqual(t, "converged state", capture(t, live), capture(t, rep.Session()))

			// Monotone version trace: whatever the wire did, the replica
			// never stepped backwards and never skipped ahead of the
			// primary.
			for i := 1; i < len(fc.versions); i++ {
				if fc.versions[i] < fc.versions[i-1] {
					t.Fatalf("replica version went backwards: %d -> %d (trace %v)",
						fc.versions[i-1], fc.versions[i], fc.versions)
				}
			}
			if last := fc.versions[len(fc.versions)-1]; last != live.Snapshot().Version {
				t.Fatalf("replica at version %d, primary at %d", last, live.Snapshot().Version)
			}

			applied, skipped, installs := rep.Stats()
			st := sp.Stats()
			t.Logf("mode=%s applied=%d skipped=%d installs=%d shipper=%+v shipErrs=%d",
				mode, applied, skipped, installs, st, shipErrs)
			switch mode {
			case "drop", "reorder":
				// A lost or overtaken frame must have forced at least one
				// healing resync beyond the bootstrap install.
				if installs < 2 {
					t.Fatalf("expected a healing snapshot resync, installs=%d", installs)
				}
			case "dup":
				if skipped == 0 {
					t.Fatal("duplicate frames were not idempotently skipped")
				}
				if installs != 1 {
					t.Fatalf("duplicates should heal without resync, installs=%d", installs)
				}
			case "truncate":
				if st.Degraded == 0 {
					t.Fatal("torn frames did not degrade the stream")
				}
				if installs < 2 {
					t.Fatalf("expected a healing resync after the tear, installs=%d", installs)
				}
			}
		})
	}
}

// TestShipperDeadFollowerBackoff: when the follower refuses everything,
// the shipper must not capture a full snapshot per committed batch —
// the retry schedule is exponential over the failure streak — and the
// write path must keep going (errors absorbed as degraded).
func TestShipperDeadFollowerBackoff(t *testing.T) {
	var snaps atomic.Int64
	dead := deadTransport{}
	sp := ship.NewShipper("gone", dead, func() (*wal.Snapshot, error) {
		snaps.Add(1)
		return sampleSnapshot(t, "gone")
	}, ship.Counters{})
	defer sp.Close()

	const sends = 64
	for i := 0; i < sends; i++ {
		_ = sp.ShipSync(&wal.Batch{PrevVersion: uint64(i), Version: uint64(i + 1)})
	}
	if n := snaps.Load(); n >= sends/2 {
		t.Fatalf("dead follower cost %d snapshot captures over %d sends — no backoff", n, sends)
	}
	if st := sp.Stats(); st.Degraded == 0 && st.Dropped == 0 {
		t.Fatalf("dead follower left no degradation trace: %+v", st)
	}
}

type deadTransport struct{}

func (deadTransport) ShipSnapshot(string, *wal.Snapshot) error { return fmt.Errorf("conn refused") }
func (deadTransport) ShipBatch(string, *wal.Batch) error       { return fmt.Errorf("conn refused") }

// blackholeTransport delivers normally until failing is set, then
// errors every send — the follower that was healthy and went dark.
// attempts counts transport calls made while failing: the cost a
// black-holed follower imposes on the primary's write path.
type blackholeTransport struct {
	inner    *ship.LocalTransport
	failing  atomic.Bool
	attempts atomic.Int64
}

func (b *blackholeTransport) ShipSnapshot(name string, snap *wal.Snapshot) error {
	if b.failing.Load() {
		b.attempts.Add(1)
		return fmt.Errorf("no route to host")
	}
	return b.inner.ShipSnapshot(name, snap)
}

func (b *blackholeTransport) ShipBatch(name string, batch *wal.Batch) error {
	if b.failing.Load() {
		b.attempts.Add(1)
		return fmt.Errorf("no route to host")
	}
	return b.inner.ShipBatch(name, batch)
}

// TestShipperBlackholedFollowerBatchBackoff: a follower that was healthy
// (bootstrap installed, batches flowing) and then goes dark must not
// cost the primary one transport attempt — under ack=quorum, one full
// transport timeout — per committed write. The first batch failure
// flags the stream for snapshot healing, which puts every subsequent
// send behind the exponential failStreak backoff: transport attempts
// grow ~log2 in the number of writes, the rest are fast local drops.
// When the follower returns, the stream heals with a snapshot resync
// and converges, and the LastError surface clears.
func TestShipperBlackholedFollowerBatchBackoff(t *testing.T) {
	const name = "darkened"
	live, err := increpair.NewSession(batteryBase(t, true), batteryCFDs(t, batterySchema()),
		&increpair.Options{Ordering: increpair.Linear})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	lt := ship.NewLocalTransport(2)
	defer lt.Close()
	bt := &blackholeTransport{inner: lt}
	sp := ship.NewShipper(name, bt, func() (*wal.Snapshot, error) {
		return live.PersistSnapshot(name)
	}, ship.Counters{})
	defer sp.Close()

	rng := rand.New(rand.NewSource(83))
	shipOne := func() error {
		deletes, sets, inserts := randomOps(rng, live.Current())
		prev := live.Snapshot().Version
		if _, _, err := live.ApplyOps(deletes, sets, inserts); err != nil {
			t.Fatal(err)
		}
		return sp.ShipSync(&wal.Batch{
			PrevVersion: prev,
			Version:     live.Snapshot().Version,
			Ops:         increpair.OpsToDeltas(deletes, sets, inserts),
		})
	}

	// Healthy phase: bootstrap plus acknowledged batches.
	for i := 0; i < 2; i++ {
		if err := shipOne(); err != nil {
			t.Fatalf("healthy ship failed: %v", err)
		}
	}
	if st := sp.Stats(); st.LastError != "" {
		t.Fatalf("healthy stream reports an error: %q", st.LastError)
	}

	// Follower goes dark: every write degrades, few reach the wire.
	bt.failing.Store(true)
	const sends = 64
	var errs int
	for i := 0; i < sends; i++ {
		if shipOne() != nil {
			errs++
		}
	}
	if errs != sends {
		t.Fatalf("black-holed follower absorbed %d/%d sends silently", sends-errs, sends)
	}
	if n := bt.attempts.Load(); n >= sends/4 {
		t.Fatalf("black-holed follower cost %d transport attempts over %d sends — batch path has no backoff", n, sends)
	}
	st := sp.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no frames reported dropped under backoff: %+v", st)
	}
	if st.LastError == "" {
		t.Fatalf("failing stream reports no LastError: %+v", st)
	}

	// Follower returns: the stream heals (a snapshot resync at the next
	// retry point), the error surface clears, and the replica converges.
	bt.failing.Store(false)
	healed := false
	for i := 0; i < 2*sends && !healed; i++ {
		healed = shipOne() == nil
	}
	if !healed {
		t.Fatal("stream never healed after the follower returned")
	}
	if st := sp.Stats(); st.LastError != "" {
		t.Fatalf("healed stream still reports an error: %q", st.LastError)
	}
	rep := lt.Replica(name)
	if rep == nil {
		t.Fatal("follower never bootstrapped")
	}
	requireEqual(t, "healed state", capture(t, live), capture(t, rep.Session()))
}

func sampleSnapshot(t testing.TB, name string) (*wal.Snapshot, error) {
	t.Helper()
	sess, err := increpair.NewSession(batteryBase(t, false), batteryCFDs(t, batterySchema()),
		&increpair.Options{Ordering: increpair.Linear})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	return sess.PersistSnapshot(name)
}
