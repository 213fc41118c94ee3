package cfdclean_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"cfdclean"
	"cfdclean/workload"
)

// incStream is one generated session stream: a clean base, then batches of
// arrivals; the churn form also deletes each batch's arrivals a few batches
// later and overwrites cells of base tuples with values copied from other
// base tuples (the benchmark's inc_stream and inc_churn shapes, scaled down).
type incStream struct {
	ds      *workload.Dataset
	base    int
	deletes [][]cfdclean.TupleID
	sets    [][]cfdclean.SessionSet
	inserts [][]*cfdclean.Tuple
}

// The shape of every stream: tuples in the base, batches, arrivals per
// batch; in the churn form, batches an arrival lives and cell updates per
// batch.
const incBase, incBatches, incBatchSize, incWindow, incSets = 800, 8, 50, 3, 4

func buildIncStream(ds *workload.Dataset, seed int64, churn bool) *incStream {
	const base, batchSize, sets = incBase, incBatchSize, incSets
	st := &incStream{ds: ds, base: base}
	opt, dirty := ds.Opt.Tuples(), ds.Dirty.Tuples()
	setAttrs := []int{
		workload.AttrCT, workload.AttrZip, workload.AttrSTR,
		workload.AttrPR, workload.AttrVAT, workload.AttrST,
	}
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < incBatches; b++ {
		var ins []*cfdclean.Tuple
		for _, tu := range dirty[base+b*batchSize : base+(b+1)*batchSize] {
			c := tu.Clone()
			c.ID = 0
			ins = append(ins, c)
		}
		st.inserts = append(st.inserts, ins)
		var dels []cfdclean.TupleID
		var ops []cfdclean.SessionSet
		if churn {
			if b >= incWindow {
				// Arrivals are numbered base+1, base+2, … in arrival order.
				old := base + (b-incWindow)*batchSize
				for i := 0; i < batchSize; i++ {
					dels = append(dels, cfdclean.TupleID(old+i+1))
				}
			}
			at := rng.Intn(base)
			for s := 0; s < sets; s++ {
				at = (at + 1 + base/(sets+1)) % base
				a := setAttrs[rng.Intn(len(setAttrs))]
				donor := opt[rng.Intn(base)]
				ops = append(ops, cfdclean.SessionSet{ID: opt[at].ID, Attr: a, Value: donor.Vals[a]})
			}
		}
		st.deletes = append(st.deletes, dels)
		st.sets = append(st.sets, ops)
	}
	return st
}

// open starts a session over the stream's clean base.
func (st *incStream) open(t *testing.T, opts *cfdclean.IncOptions) *cfdclean.Session {
	t.Helper()
	d := cfdclean.NewRelation(st.ds.Schema)
	for _, tu := range st.ds.Opt.Tuples()[:st.base] {
		if err := d.Insert(tu.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := cfdclean.NewSession(d, st.ds.Sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// play pushes batches [from, to) of the stream through sess.
func (st *incStream) play(t *testing.T, sess *cfdclean.Session, from, to int) {
	t.Helper()
	for b := from; b < to; b++ {
		var err error
		if st.deletes[b] == nil && st.sets[b] == nil {
			_, err = sess.ApplyDelta(st.inserts[b])
		} else {
			_, _, err = sess.ApplyOps(st.deletes[b], st.sets[b], st.inserts[b])
		}
		if err != nil {
			t.Fatal(err)
		}
		if !sess.Satisfied() {
			t.Fatalf("session violates Σ after batch %d", b)
		}
	}
}

// dumpHash is the SHA-256 of the session's dump.
func dumpHash(t *testing.T, sess *cfdclean.Session) string {
	t.Helper()
	var out bytes.Buffer
	if err := sess.Dump(&out); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
}

// run plays the stream through a fresh session and returns the SHA-256 of
// its dump together with the session's index counters, and the share of
// the domain values its similarity queries visited that they measured with
// the DL kernel, which it fails the test for exceeding 1.
func (st *incStream) run(t *testing.T, opts *cfdclean.IncOptions) (string, string, float64) {
	t.Helper()
	sess := st.open(t, opts)
	defer sess.Close()
	st.play(t, sess, 0, incBatches)
	ix := sess.IndexStats()
	if ix.Measured > ix.Visited || ix.Visited == 0 {
		t.Errorf("the similarity queries measured %d values and visited %d", ix.Measured, ix.Visited)
	}
	return dumpHash(t, sess), fmt.Sprintf("nearest=%d visited=%d rounds=%d freepins=%d", ix.Nearest, ix.Visited, ix.Rounds, ix.FreePins),
		float64(ix.Measured) / float64(ix.Visited)
}

// incDataset generates the data every stream of one seed draws from.
func incDataset(t *testing.T, seed int64) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Config{
		Size: incBase + incBatches*incBatchSize, NoiseRate: 0.05, ConstShare: 0.5,
		PatternRows: 600, Weights: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSessionStreamHashes plays 10 seeds × {insert-only ApplyDelta, ApplyOps
// churn with deletes and SetOps} through Session and compares the SHA-256
// of each Session.Dump with testdata/inc_hashes.txt, plus — for the first
// seed — the similarity search's Nearest and Visited counters and
// TUPLERESOLVE's Rounds and FreePins. The file was
// recorded at the commit before PR 16, whose vio(t) walked the LHS bucket
// one Relation.Tuple lookup per member and whose DL kernel was a three-row
// dynamic program; both are gone, so these hashes are their oracle: a
// counted bucket that miscounts or a bit-vector kernel that is off by one
// picks another candidate somewhere in 8 000 arrivals. PR 17 replaced the
// similarity trees of that commit by an exact scan of the active domain and
// re-recorded the lines that changed with it: "16009 stream", whose repair
// turned on a candidate list the trees had got wrong (EXPERIMENTS.md
// "PR 17"), and the two index lines — Visited is now the number of domain
// values measured, Σ|adom(a)| over the queries, so it moves with any change
// to which queries are asked or to what the relation holds when they are.
// PR 19 re-recorded the two index lines alone: rounds that keep attributes
// as they are ask no query (Nearest 116 → 30 and 305 → 79), a regression
// guard that needs no clock. For the first seed it also holds the queries
// to measuring at most 45 % of the values they visit: the profile bound
// rules out the rest (620 of 2 802 and 1 866 of 7 800 measured when it
// came in).
// Regenerate with -update only for a change that means to alter repairs.
func TestSessionStreamHashes(t *testing.T) {
	path := filepath.Join("testdata", "inc_hashes.txt")
	const first, count = 16001, 10
	var lines []string
	for i := 0; i < count; i++ {
		seed := int64(first + i)
		ds := incDataset(t, seed)
		for _, kind := range []string{"stream", "churn"} {
			st := buildIncStream(ds, seed, kind == "churn")
			hash, ix, measured := st.run(t, nil)
			lines = append(lines, fmt.Sprintf("%d %s %s", seed, kind, hash))
			if i == 0 {
				lines = append(lines, fmt.Sprintf("%d %s index %s", seed, kind, ix))
				if measured > 0.45 {
					t.Errorf("seed %d %s: the similarity queries measured %.1f %% of the values they visited, want ≤ 45 %%", seed, kind, 100*measured)
				}
				t.Logf("seed %d %s: %s, %.1f %% of the visited values measured", seed, kind, ix, 100*measured)
			}
		}
	}
	checkRecorded(t, path, lines)
}

// TestRestoreMidStreamMatchesLive: a session persisted after batch 2, 4 or 6
// of a stream, restored from that image and played the rest, ends byte for
// byte where the session that never stopped ends — on the generated domains
// (hundreds of values an attribute), over 10 seeds × {stream, churn}. A
// restored session interns its values in another order and has asked none
// of the earlier similarity queries, so this holds because the candidates
// of a repair are a function of the relation's contents alone.
func TestRestoreMidStreamMatchesLive(t *testing.T) {
	const first, count = 17001, 10
	cuts := []int{2, 4, 6}
	for i := 0; i < count; i++ {
		seed := int64(first + i)
		ds := incDataset(t, seed)
		for _, kind := range []string{"stream", "churn"} {
			st := buildIncStream(ds, seed, kind == "churn")
			// One session plays straight through; Persist is a read.
			live := st.open(t, nil)
			images := make([]bytes.Buffer, len(cuts))
			at := 0
			for c, cut := range cuts {
				st.play(t, live, at, cut)
				if err := live.Persist("", &images[c]); err != nil {
					t.Fatal(err)
				}
				at = cut
			}
			st.play(t, live, at, incBatches)
			want := dumpHash(t, live)
			live.Close()

			for c, cut := range cuts {
				back, err := cfdclean.RestoreSession(&images[c])
				if err != nil {
					t.Fatal(err)
				}
				st.play(t, back, cut, incBatches)
				if got := dumpHash(t, back); got != want {
					t.Errorf("seed %d %s: restored after batch %d, the dump is %s; the live session's is %s", seed, kind, cut, got[:12], want[:12])
				}
				back.Close()
			}
		}
	}
}
