package increpair

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// persistedSession builds a small live session and returns it with its
// serialized snapshot.
func persistedSession(t *testing.T, opts *Options) (*Session, []byte) {
	t.Helper()
	d := cleanPaperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	sess, err := NewSession(d, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta := randomDelta(rand.New(rand.NewSource(5)), 12)
	if _, err := sess.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Persist("unit", &buf); err != nil {
		t.Fatal(err)
	}
	return sess, buf.Bytes()
}

// TestPersistRestoreOptions: the determinism-relevant engine options
// ride the snapshot, and a restore from the stream reader's rows keeps
// them.
func TestPersistRestoreOptions(t *testing.T) {
	sess, snap := persistedSession(t, &Options{Ordering: ByWeight, K: 1, NearestK: 3})
	defer sess.Close()

	restored, err := RestoreSession(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	o := restored.e.opts
	if o.Ordering != ByWeight || o.K != 1 || o.NearestK != 3 {
		t.Fatalf("persisted options lost: %+v", o)
	}

	decoded, rows, err := wal.NewSnapshotReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	old, err := RestoreFromSnapshotSource(decoded, rows, rows.Dict())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if p := old.e.opts; p.Ordering != o.Ordering || p.K != o.K || p.NearestK != o.NearestK {
		t.Fatalf("a restore from the reader's rows changed the options: %+v, want %+v", p, o)
	}

	// Initial() is a creation-time artifact and does not survive
	// restoration; everything the stats path reports does.
	if restored.Initial() != nil {
		t.Fatal("restored session claims an initial repair")
	}
	wb, wt, wc, wch := sess.Stats()
	gb, gt, gc, gch := restored.Stats()
	if wb != gb || wt != gt || wc != gc || wch != gch {
		t.Fatalf("stats: want (%d %d %g %d), got (%d %d %g %d)", wb, wt, wc, wch, gb, gt, gc, gch)
	}
}

// TestPersistClosedSession: a closed session refuses to persist (its
// store is detached and would answer stale).
func TestPersistClosedSession(t *testing.T) {
	sess, _ := persistedSession(t, nil)
	sess.Close()
	var buf bytes.Buffer
	if err := sess.Persist("x", &buf); err == nil {
		t.Fatal("closed session persisted")
	}
	if _, err := sess.PersistSnapshot("x"); err == nil {
		t.Fatal("closed session built a snapshot")
	}
}

// TestPersistRequiresSourceCFDs: a sigma assembled by hand from Normal
// values (no Source) cannot round-trip through the text format and must
// be refused, not silently mangled.
func TestPersistRequiresSourceCFDs(t *testing.T) {
	d := cleanPaperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	bare := make([]*cfd.Normal, len(sigma))
	for i, n := range sigma {
		c := *n
		c.Source = nil
		bare[i] = &c
	}
	sess, err := NewSession(d, bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var buf bytes.Buffer
	if err := sess.Persist("x", &buf); err == nil || !strings.Contains(err.Error(), "source") {
		t.Fatalf("persist of sourceless sigma: %v", err)
	}

	// A subset of the normalization (rule picked out of its source) is
	// likewise refused: restoring it would resurrect the full source.
	sub, err := NewSession(cleanPaperData(t), sigma[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	buf.Reset()
	if err := sub.Persist("x", &buf); err == nil {
		t.Fatal("persist of a partial normalization succeeded")
	}
}

// TestRestoreRejectsDamage: structurally valid frames with semantically
// broken payload fields fail cleanly, and so do rows whose ids a stream
// cannot carry or the relation cannot take.
func TestRestoreRejectsDamage(t *testing.T) {
	sess, snapBytes := persistedSession(t, nil)
	defer sess.Close()
	snap, err := sess.PersistSnapshot("unit")
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(s *wal.Snapshot)) *wal.Snapshot {
		c := *snap
		c.Attrs = append([]string(nil), snap.Attrs...)
		f(&c)
		return &c
	}
	for name, broken := range map[string]*wal.Snapshot{
		"bad-ordering":    mutate(func(s *wal.Snapshot) { s.Ordering = 9 }),
		"bad-cfds":        mutate(func(s *wal.Snapshot) { s.CFDs = "not a cfd spec" }),
		"empty-attrs":     mutate(func(s *wal.Snapshot) { s.Attrs = nil }),
		"low-watermark":   mutate(func(s *wal.Snapshot) { s.NextID = 1 }),
		"cfd-wrong-attrs": mutate(func(s *wal.Snapshot) { s.CFDs = "cfd x: [nope] -> [CT]\n(_ || _)\n" }),
	} {
		if _, err := RestoreFromSnapshot(broken, 0); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
	for name, edit := range map[string]func(rows []wal.SnapTuple){
		"zero-tuple-id": func(rows []wal.SnapTuple) { rows[0].ID = 0 },
		"dup-tuple-id":  func(rows []wal.SnapTuple) { rows[1].ID = rows[0].ID },
	} {
		head, rows, strs := idRows(t, snapBytes)
		edit(rows)
		dict := relation.NewDict()
		for _, s := range strs {
			dict.InternStr(s)
		}
		if _, err := RestoreFromSnapshotSource(head, &freshRows{ts: rows}, dict); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}

	// Truncated snapshot stream.
	if _, err := RestoreSession(bytes.NewReader(snapBytes[:len(snapBytes)/2])); err == nil {
		t.Fatal("restore of a torn snapshot succeeded")
	}
}

// TestDeltasToOpsRejectsGarbage guards the decode half of the op codec.
func TestDeltasToOpsRejectsGarbage(t *testing.T) {
	if _, _, _, err := DeltasToOps([]relation.Delta{{Kind: 7, T: &relation.Tuple{}}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, _, _, err := DeltasToOps([]relation.Delta{{Kind: relation.DeltaInsert}}); err == nil {
		t.Fatal("nil tuple accepted")
	}
	// Round trip keeps kinds sorted into ApplyOps argument positions.
	deletes := []relation.TupleID{4, 9}
	sets := []SetOp{{ID: 2, Attr: 1, Value: relation.S("x")}}
	inserts := []*relation.Tuple{relation.NewTuple(0, "a", "b")}
	d2, s2, i2, err := DeltasToOps(OpsToDeltas(deletes, sets, inserts))
	if err != nil {
		t.Fatal(err)
	}
	if len(d2) != 2 || d2[0] != 4 || d2[1] != 9 || len(s2) != 1 || s2[0] != sets[0] || len(i2) != 1 {
		t.Fatalf("ops round trip: %v %v %v", d2, s2, i2)
	}
}

// TestReplayBatchDivergence: a record whose recorded post-version does
// not match what the pass produced must be reported — the state can no
// longer be trusted to mirror the pre-crash session.
func TestReplayBatchDivergence(t *testing.T) {
	sess, snapBytes := persistedSession(t, nil)
	defer sess.Close()
	restored, err := RestoreSession(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	cur := restored.Snapshot().Version
	b := &wal.Batch{
		PrevVersion: cur,
		Version:     cur + 1000, // a single insert cannot move the counter this far
		Ops: OpsToDeltas(nil, nil, []*relation.Tuple{
			relation.NewTuple(0, "a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "PHI", "PA", "19014"),
		}),
	}
	if _, err := restored.ReplayBatch(b); err == nil {
		t.Fatal("diverging replay went unreported")
	}
}
