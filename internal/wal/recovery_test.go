package wal_test

// The crash-recovery battery. A live streaming session is driven with
// random mutation batches while its WAL is recorded exactly the way the
// server's persister records it; the battery then kills the log at
// arbitrary byte offsets (record boundaries included), corrupts tail
// records, and replays — asserting that the recovered session is
// *byte-identical* to the live session at the same watermark: equal CSV
// dumps (bytes.Equal), equal violation listings and totals, equal
// cumulative Stats and equal published Snapshots. Each case restores
// once, under both batch orderings. Runs under -race in CI.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

func batterySchema() *relation.Schema {
	return relation.MustSchema("order", "AC", "PN", "CT", "ST", "zip")
}

func batteryCFDs(t testing.TB, s *relation.Schema) []*cfd.Normal {
	t.Helper()
	spec := `
cfd phi1: [AC] -> [CT, ST]
(212 || NYC, NY)
(610 || PHI, PA)
(215 || PHI, PA)
cfd fd1: [zip] -> [CT]
(_ || _)
`
	parsed, err := cfd.Parse(s, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return cfd.NormalizeAll(parsed)
}

func batteryBase(t testing.TB, dirty bool) *relation.Relation {
	t.Helper()
	r := relation.New(batterySchema())
	rows := [][]string{
		{"212", "8983490", "NYC", "NY", "10012"},
		{"212", "3456789", "NYC", "NY", "10012"},
		{"610", "3345677", "PHI", "PA", "19014"},
		{"215", "5674322", "PHI", "PA", "19014"},
		{"215", "5674000", "PHI", "PA", "19014"},
		{"312", "7654321", "CHI", "IL", "60614"},
	}
	for _, row := range rows {
		r.MustInsert(relation.NewTuple(0, row...))
	}
	if dirty {
		r.MustInsert(relation.NewTuple(0, "212", "9999999", "PHI", "PA", "19014"))
		r.MustInsert(relation.NewTuple(0, "610", "8888888", "NYC", "NY", "10012"))
	}
	return r
}

// randomOps builds one valid ApplyOps batch against the session's
// current relation: a few deletes, cell updates and inserts drawn from
// value pools that collide with the constraint patterns.
func randomOps(rng *rand.Rand, cur *relation.Relation) (deletes []relation.TupleID, sets []increpair.SetOp, inserts []*relation.Tuple) {
	acs := []string{"212", "610", "215", "312"}
	pns := []string{"1000001", "1000002", "1000003", "1000004", "1000005"}
	cts := []string{"NYC", "PHI", "CHI"}
	sts := []string{"NY", "PA", "IL"}
	zips := []string{"10012", "19014", "60614"}
	pools := [][]string{acs, pns, cts, sts, zips}

	live := cur.Tuples()
	var ids []relation.TupleID
	for _, t := range live {
		ids = append(ids, t.ID)
	}
	taken := make(map[relation.TupleID]bool)

	if len(ids) > 4 && rng.Intn(2) == 0 {
		for i, n := 0, rng.Intn(2)+1; i < n; i++ {
			id := ids[rng.Intn(len(ids))]
			if !taken[id] {
				taken[id] = true
				deletes = append(deletes, id)
			}
		}
	}
	if len(ids) > 0 && rng.Intn(2) == 0 {
		for i, n := 0, rng.Intn(2)+1; i < n; i++ {
			id := ids[rng.Intn(len(ids))]
			if taken[id] {
				continue
			}
			a := rng.Intn(len(pools))
			v := relation.S(pools[a][rng.Intn(len(pools[a]))])
			if rng.Intn(8) == 0 {
				v = relation.NullValue
			}
			sets = append(sets, increpair.SetOp{ID: id, Attr: a, Value: v})
		}
	}
	for i, n := 0, rng.Intn(3)+1; i < n; i++ {
		vals := make([]relation.Value, len(pools))
		for a, p := range pools {
			vals[a] = relation.S(p[rng.Intn(len(p))])
		}
		tp := &relation.Tuple{Vals: vals}
		if rng.Intn(3) == 0 {
			tp.W = make([]float64, len(vals))
			for j := range tp.W {
				tp.W[j] = 0.25 + 0.75*rng.Float64()
			}
		}
		inserts = append(inserts, tp)
	}
	return deletes, sets, inserts
}

// fingerprint is everything the acceptance criterion compares: the CSV
// dump bytes, the full published snapshot, and the violation listing.
type fingerprint struct {
	dump  []byte
	snap  increpair.Snapshot
	vios  string
	total int
}

func capture(t testing.TB, sess *increpair.Session) fingerprint {
	t.Helper()
	view, err := sess.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	var buf bytes.Buffer
	if err := view.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	vs, _ := view.Violations(cfd.AnyVio(), 0, 0)
	var vb strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&vb, "%d/%s/%d;", v.T, v.N.Name, v.With)
	}
	return fingerprint{dump: buf.Bytes(), snap: view.Snapshot(), vios: vb.String(), total: view.TotalViolations()}
}

func requireEqual(t testing.TB, ctx string, want, got fingerprint) {
	t.Helper()
	if !bytes.Equal(want.dump, got.dump) {
		t.Fatalf("%s: dumps differ\nwant:\n%s\ngot:\n%s", ctx, want.dump, got.dump)
	}
	if want.snap != got.snap {
		t.Fatalf("%s: snapshots differ\nwant %+v\ngot  %+v", ctx, want.snap, got.snap)
	}
	if want.vios != got.vios || want.total != got.total {
		t.Fatalf("%s: violations differ: want %q (%d), got %q (%d)", ctx, want.vios, want.total, got.vios, got.total)
	}
}

// recording is one live run's durable artifacts: the initial snapshot,
// a mid-run snapshot, the logged batches, each one's self-contained
// encoding (a shipped frame's payload), and the fingerprint after every
// batch (fps[0] is the pre-batch initial state).
type recording struct {
	snap0    []byte
	snapMid  []byte
	midIndex int
	batches  []*wal.Batch
	payloads [][]byte
	fps      []fingerprint
}

// writeLog writes the batches to a fresh WAL at path, as the persister
// appends them, and returns the file length after each record
// (boundaries[i] with i records intact; boundaries[0] is the header's).
func writeLog(t testing.TB, path string, batches []*wal.Batch) (boundaries []int) {
	t.Helper()
	l, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	boundaries = []int{len("CFDWAL") + 1}
	for _, b := range batches {
		n, err := l.AppendBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return boundaries
}

// record drives a live session through nBatches random batches exactly
// like the server's single-writer worker would, logging each accepted
// batch with its journal-version bracket.
func record(t testing.TB, seed int64, ordering increpair.Ordering, nBatches int, dirtyBase bool) *recording {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sess, err := increpair.NewSession(batteryBase(t, dirtyBase), batteryCFDs(t, batterySchema()),
		&increpair.Options{Ordering: ordering})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	rec := &recording{midIndex: nBatches / 2}
	var buf bytes.Buffer
	if err := sess.Persist("battery", &buf); err != nil {
		t.Fatal(err)
	}
	rec.snap0 = append([]byte(nil), buf.Bytes()...)
	rec.fps = append(rec.fps, capture(t, sess))

	for b := 0; b < nBatches; b++ {
		deletes, sets, inserts := randomOps(rng, sess.Current())
		prev := sess.Snapshot().Version
		if _, _, err := sess.ApplyOps(deletes, sets, inserts); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		batch := &wal.Batch{
			PrevVersion: prev,
			Version:     sess.Snapshot().Version,
			Ops:         increpair.OpsToDeltas(deletes, sets, inserts),
		}
		rec.batches = append(rec.batches, batch)
		rec.payloads = append(rec.payloads, batch.Encode())
		rec.fps = append(rec.fps, capture(t, sess))
		if b+1 == rec.midIndex {
			buf.Reset()
			if err := sess.Persist("battery", &buf); err != nil {
				t.Fatal(err)
			}
			rec.snapMid = append([]byte(nil), buf.Bytes()...)
		}
	}
	return rec
}

// restoreAndReplay rebuilds a session from a snapshot and replays the
// given WAL batches, returning its fingerprint.
func restoreAndReplay(t testing.TB, snap []byte, batches []*wal.Batch) fingerprint {
	t.Helper()
	sess, err := increpair.RestoreSession(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, b := range batches {
		if _, err := sess.ReplayBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return capture(t, sess)
}

// TestRecoveryEquivalence is the core property: for every batch prefix,
// restoring the initial snapshot and replaying the logged records
// reproduces the live session bit for bit — dumps, violations, stats,
// snapshots — for clean and dirty bases and both batch orderings.
func TestRecoveryEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		ordering increpair.Ordering
		dirty    bool
	}{
		{"linear-clean", 1, increpair.Linear, false},
		{"linear-dirty", 2, increpair.Linear, true},
		{"vio-clean", 3, increpair.ByViolations, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := record(t, tc.seed, tc.ordering, 8, tc.dirty)
			for k := 0; k <= len(rec.batches); k++ {
				got := restoreAndReplay(t, rec.snap0, rec.batches[:k])
				requireEqual(t, fmt.Sprintf("prefix=%d", k), rec.fps[k], got)
			}
		})
	}
}

// TestRecoverySkipsContainedRecords restores from the mid-run snapshot
// while replaying the *whole* log: records already contained in the
// snapshot must be skipped by the version cursor, later ones applied —
// the exact situation after a crash between snapshot rotation and WAL
// truncation.
func TestRecoverySkipsContainedRecords(t *testing.T) {
	rec := record(t, 17, increpair.Linear, 8, false)
	got := restoreAndReplay(t, rec.snapMid, rec.batches)
	requireEqual(t, "mid-snapshot", rec.fps[len(rec.fps)-1], got)
}

// TestRecoveryKillAtArbitraryOffsets writes the recording to a real WAL
// file, truncates it at every byte offset in turn (simulating kill -9
// mid-write), and requires recovery to land exactly on the fingerprint
// of the last intact batch — committed batches before the cut are never
// lost, the torn tail is never half-applied.
func TestRecoveryKillAtArbitraryOffsets(t *testing.T) {
	rec := record(t, 23, increpair.Linear, 6, false)
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0000000000.log")
	boundaries := writeLog(t, path, rec.batches)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	intactAt := func(cut int) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				n = i
			}
		}
		return n
	}
	// Every record boundary, plus a deterministic sample of mid-record
	// offsets (every 7th byte) to keep the -race run quick.
	cuts := map[int]bool{}
	for _, b := range boundaries {
		cuts[b] = true
	}
	for c := 7; c <= len(whole); c += 7 {
		cuts[c] = true
	}
	for cut := range cuts {
		p := filepath.Join(t.TempDir(), "cut.log")
		if err := os.WriteFile(p, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, batches, _, err := wal.Open(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		l.Close()
		k := intactAt(cut)
		if len(batches) != k {
			t.Fatalf("cut %d: %d intact records, want %d", cut, len(batches), k)
		}
		got := restoreAndReplay(t, rec.snap0, batches)
		requireEqual(t, fmt.Sprintf("kill at %d (batch %d)", cut, k), rec.fps[k], got)
	}
}

// TestRecoveryCorruptTail flips bytes inside the framed log — payloads
// and frame headers both — and requires the damaged suffix to be
// discarded cleanly while every batch before it survives.
func TestRecoveryCorruptTail(t *testing.T) {
	rec := record(t, 29, increpair.Linear, 5, false)
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	offsets := writeLog(t, path, rec.batches)
	whole, _ := os.ReadFile(path)

	for recI := 0; recI < len(rec.batches); recI++ {
		for _, delta := range []int{0, 4, 8, 12} { // length, crc, payload bytes
			off := offsets[recI] + delta
			if off >= offsets[recI+1] {
				continue
			}
			corrupted := append([]byte(nil), whole...)
			corrupted[off] ^= 0x5a
			p := filepath.Join(t.TempDir(), "bad.log")
			if err := os.WriteFile(p, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			l, batches, discarded, err := wal.Open(p)
			if err != nil {
				t.Fatalf("corrupt rec %d+%d: %v", recI, delta, err)
			}
			l.Close()
			if len(batches) > recI {
				t.Fatalf("corrupt rec %d+%d: %d records survived damage at record %d", recI, delta, len(batches), recI)
			}
			if len(batches) == recI && discarded == 0 {
				t.Fatalf("corrupt rec %d+%d: no bytes discarded", recI, delta)
			}
			got := restoreAndReplay(t, rec.snap0, batches)
			requireEqual(t, fmt.Sprintf("corrupt rec %d+%d", recI, delta), rec.fps[len(batches)], got)
		}
	}
}

// TestReplayDetectsGaps: a record whose PrevVersion does not meet the
// session's cursor must be rejected, not applied — a hole in the log
// means the recovered state cannot be trusted.
func TestReplayDetectsGaps(t *testing.T) {
	rec := record(t, 31, increpair.Linear, 4, false)
	sess, err := increpair.RestoreSession(bytes.NewReader(rec.snap0))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Skip record 0, try record 1: gap.
	b, err := wal.DecodeBatch(rec.payloads[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ReplayBatch(b); err == nil {
		t.Fatal("replay accepted a batch across a log hole")
	}
	// Record 0 still applies (the failed attempt must not have mutated).
	b0, _ := wal.DecodeBatch(rec.payloads[0])
	if applied, err := sess.ReplayBatch(b0); err != nil || !applied {
		t.Fatalf("replay of the in-order record failed: applied=%v err=%v", applied, err)
	}
	requireEqual(t, "after gap rejection", rec.fps[1], capture(t, sess))

	// Replaying the same record again is an idempotent no-op.
	if applied, err := sess.ReplayBatch(b0); err != nil || applied {
		t.Fatalf("duplicate replay: applied=%v err=%v", applied, err)
	}
}

// TestRestoredSessionKeepsWorking: recovery is not just a postmortem —
// the restored session accepts further batches, and those batches
// produce the same results the never-crashed session produces.
func TestRestoredSessionKeepsWorking(t *testing.T) {
	rec := record(t, 37, increpair.Linear, 4, false)
	live, err := increpair.RestoreSession(bytes.NewReader(rec.snap0))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, p := range rec.payloads {
		b, _ := wal.DecodeBatch(p)
		if _, err := live.ReplayBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Same post-recovery traffic against the recovered session and a
	// twin restored the same way must agree fingerprint for fingerprint.
	twin, err := increpair.RestoreSession(bytes.NewReader(rec.snap0))
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for _, p := range rec.payloads {
		b, _ := wal.DecodeBatch(p)
		if _, err := twin.ReplayBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for b := 0; b < 3; b++ {
		deletes, sets, inserts := randomOps(rng, live.Current())
		cloned := make([]*relation.Tuple, len(inserts))
		for i, tp := range inserts {
			cloned[i] = tp.Clone()
		}
		if _, _, err := live.ApplyOps(deletes, sets, inserts); err != nil {
			t.Fatal(err)
		}
		if _, _, err := twin.ApplyOps(append([]relation.TupleID(nil), deletes...), append([]increpair.SetOp(nil), sets...), cloned); err != nil {
			t.Fatal(err)
		}
		requireEqual(t, fmt.Sprintf("post-recovery batch %d", b), capture(t, live), capture(t, twin))
	}
}
