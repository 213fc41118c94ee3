package ship_test

// The failover equivalence battery: a live "primary" session is driven
// with random mutation batches while its snapshot stream and every batch
// frame are recorded as a replication stream; the battery then kills the
// stream at every batch boundary and at sampled byte offsets inside the
// snapshot and the frames — exactly how a primary crash appears to its
// follower — and requires the promoted replica to be *byte-identical* to
// the never-crashed oracle at the same watermark: equal CSV dumps
// (bytes.Equal), equal violation listings and totals, equal published
// snapshots, across replay worker counts 0/1/2/4. Runs under -race in CI.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cluster/ship"
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
// current relation, drawn from value pools that collide with the
// constraint patterns.
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
	var buf bytes.Buffer
	if err := sess.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	vs, total := sess.Violations(0)
	var vb strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&vb, "%d/%s/%d;", v.T, v.N.Name, v.With)
	}
	return fingerprint{dump: buf.Bytes(), snap: sess.Snapshot(), vios: vb.String(), total: total}
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

// shipRecording is one primary run rendered as its replication stream:
// the bootstrap snapshot stream, one batch frame per accepted batch, the
// decoded batches, and the oracle fingerprint after every batch (fps[0]
// is the bootstrap state).
type shipRecording struct {
	name    string
	snap    []byte // what wal.WriteSnapshot writes
	frames  [][]byte
	batches []*wal.Batch
	fps     []fingerprint
}

// recordStream drives a live session through nBatches random batches
// exactly like a primary's worker+committer would, rendering the
// shipping stream alongside.
func recordStream(t testing.TB, name string, seed int64, nBatches int, dirty bool) *shipRecording {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sess, err := increpair.NewSession(batteryBase(t, dirty), batteryCFDs(t, batterySchema()),
		&increpair.Options{Ordering: increpair.Linear, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	rec := &shipRecording{name: name}
	snap, err := sess.PersistSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := wal.WriteSnapshot(&stream, snap); err != nil {
		t.Fatal(err)
	}
	rec.snap = stream.Bytes()
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
		rec.frames = append(rec.frames, ship.EncodeBatchFrame(batch))
		rec.fps = append(rec.fps, capture(t, sess))
	}
	return rec
}

// replay is a follower receiving stream: the snapshot stream's first
// snapLen bytes go to the install endpoint and the rest, batch frames, to
// the batch endpoint. It returns how many messages it applied (the
// snapshot counts as one). A snapshot cut short installs nothing; a torn
// frame leaves the replica at the last intact one and is reported.
func replay(r *ship.Replica, snapLen int, stream []byte) (applied int, err error) {
	snapLen = min(snapLen, len(stream))
	snap, err := wal.ReadSnapshot(bytes.NewReader(stream[:snapLen]))
	if err != nil {
		return 0, err
	}
	if err := r.InstallSnapshot(snap); err != nil {
		return 0, err
	}
	frames := bytes.NewReader(stream[snapLen:])
	for applied = 1; ; applied++ {
		b, err := ship.ReadBatchFrame(frames)
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		if _, err := r.ApplyBatch(b); err != nil {
			return applied, err
		}
	}
}

// stream concatenates the recording's snapshot and its first k frames.
func (rec *shipRecording) stream(k int) []byte {
	out := append([]byte(nil), rec.snap...)
	for _, f := range rec.frames[:k] {
		out = append(out, f...)
	}
	return out
}

// replayPrefix bootstraps a fresh replica from the snapshot and the first
// k batch frames, returning its fingerprint.
func replayPrefix(t testing.TB, rec *shipRecording, k, workers int) fingerprint {
	t.Helper()
	r := ship.NewReplica(rec.name, workers)
	defer r.Close()
	applied, err := replay(r, len(rec.snap), rec.stream(k))
	if err != nil {
		t.Fatalf("prefix %d: %v", k, err)
	}
	if applied != k+1 {
		t.Fatalf("prefix %d: applied %d messages, want %d", k, applied, k+1)
	}
	return capture(t, r.Session())
}

// TestFailoverEquivalenceAtEveryBoundary is the core tentpole property:
// kill the primary after ANY batch boundary, promote the follower, and
// the promoted state is bit-for-bit the oracle's state at that boundary
// — for every replay worker count and across independent tenants.
func TestFailoverEquivalenceAtEveryBoundary(t *testing.T) {
	for _, tenant := range []struct {
		name  string
		seed  int64
		dirty bool
	}{
		{"tenant-a", 41, false},
		{"tenant-b", 43, true},
	} {
		t.Run(tenant.name, func(t *testing.T) {
			rec := recordStream(t, tenant.name, tenant.seed, 8, tenant.dirty)
			for _, workers := range []int{0, 1, 2, 4} {
				for k := 0; k <= len(rec.batches); k++ {
					got := replayPrefix(t, rec, k, workers)
					requireEqual(t, fmt.Sprintf("workers=%d boundary=%d", workers, k), rec.fps[k], got)
				}
			}
		})
	}
}

// TestFailoverKillMidFrame cuts the stream — the snapshot's bytes, then
// the batch frames — at every message boundary and a deterministic sample
// of offsets inside messages: a primary dying mid-send. A cut inside the
// snapshot installs nothing; a cut inside the frames leaves the replica
// exactly on the last intact frame, torn bytes never half-applied, and
// the tear reported.
func TestFailoverKillMidFrame(t *testing.T) {
	rec := recordStream(t, "tenant-cut", 47, 6, false)
	whole := rec.stream(len(rec.frames))
	boundaries := []int{0, len(rec.snap)}
	for _, f := range rec.frames {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+len(f))
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
	cuts := map[int]bool{}
	for _, b := range boundaries {
		cuts[b] = true
	}
	for c := 7; c <= len(whole); c += 7 {
		cuts[c] = true
	}
	for cut := range cuts {
		r := ship.NewReplica("tenant-cut", 2)
		applied, err := replay(r, len(rec.snap), whole[:cut])
		intact := intactAt(cut)
		if applied != intact {
			t.Fatalf("cut %d: %d messages applied, want %d", cut, applied, intact)
		}
		if intact == 0 {
			if err == nil || r.Session() != nil {
				t.Fatalf("cut %d: a snapshot cut short installed (err %v)", cut, err)
			}
		} else {
			if atBoundary := boundaries[intact] == cut; atBoundary != (err == nil) {
				t.Fatalf("cut %d: at a boundary %v, err %v", cut, atBoundary, err)
			}
			got := capture(t, r.Session())
			requireEqual(t, fmt.Sprintf("cut %d (message %d)", cut, intact), rec.fps[intact-1], got)
		}
		r.Close()
	}
}

// TestPromotedReplicaKeepsWorking: promotion is not a postmortem — the
// replica's session accepts further batches after the primary is gone,
// and produces exactly what the oracle produces for the same traffic.
func TestPromotedReplicaKeepsWorking(t *testing.T) {
	rec := recordStream(t, "tenant-promote", 53, 5, false)

	// Oracle: a never-crashed session at the final boundary.
	snap, err := wal.ReadSnapshot(bytes.NewReader(rec.snap))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := increpair.RestoreFromSnapshot(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for _, b := range rec.batches {
		if _, err := oracle.ReplayBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	// Follower: the full stream, then "promote" — its session is simply
	// used as a primary from here on.
	r := ship.NewReplica("tenant-promote", 4)
	defer r.Close()
	if _, err := replay(r, len(rec.snap), rec.stream(len(rec.frames))); err != nil {
		t.Fatal(err)
	}
	promoted := r.Session()

	rng := rand.New(rand.NewSource(99))
	for b := 0; b < 3; b++ {
		deletes, sets, inserts := randomOps(rng, promoted.Current())
		cloned := make([]*relation.Tuple, len(inserts))
		for i, tp := range inserts {
			cloned[i] = tp.Clone()
		}
		if _, _, err := promoted.ApplyOps(deletes, sets, inserts); err != nil {
			t.Fatal(err)
		}
		if _, _, err := oracle.ApplyOps(append([]relation.TupleID(nil), deletes...), append([]increpair.SetOp(nil), sets...), cloned); err != nil {
			t.Fatal(err)
		}
		requireEqual(t, fmt.Sprintf("post-promotion batch %d", b), capture(t, oracle), capture(t, promoted))
	}
}
