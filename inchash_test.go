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

// run plays the stream through a fresh session and returns the SHA-256 of
// its dump together with the session's index counters.
func (st *incStream) run(t *testing.T, opts *cfdclean.IncOptions) (string, string) {
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
	defer sess.Close()
	for b := range st.inserts {
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
	var out bytes.Buffer
	if err := sess.Dump(&out); err != nil {
		t.Fatal(err)
	}
	ix := sess.IndexStats()
	return fmt.Sprintf("%x", sha256.Sum256(out.Bytes())),
		fmt.Sprintf("nearest=%d visited=%d", ix.Nearest, ix.Visited)
}

// TestSessionStreamHashes plays 10 seeds × {insert-only ApplyDelta, ApplyOps
// churn with deletes and SetOps} through Session and compares the SHA-256
// of each Session.Dump with testdata/inc_hashes.txt, plus — for the first
// seed — the similarity indices' Nearest and Visited counters. The file was
// recorded at the commit before PR 16, whose vio(t) walked the LHS bucket
// one Relation.Tuple lookup per member and whose DL kernel was a three-row
// dynamic program; both are gone, so these hashes are their oracle: a
// counted bucket that miscounts or a bit-vector kernel that is off by one
// picks another candidate somewhere in 8 000 arrivals, and a BK search that
// prunes differently visits another number of nodes. Regenerate with
// -update only for a change that means to alter repairs.
func TestSessionStreamHashes(t *testing.T) {
	path := filepath.Join("testdata", "inc_hashes.txt")
	const first, count = 16001, 10
	var lines []string
	for i := 0; i < count; i++ {
		seed := int64(first + i)
		ds, err := workload.Generate(workload.Config{
			Size: incBase + incBatches*incBatchSize, NoiseRate: 0.05, ConstShare: 0.5,
			PatternRows: 600, Weights: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"stream", "churn"} {
			st := buildIncStream(ds, seed, kind == "churn")
			hash, ix := st.run(t, nil)
			if one, ix1 := st.run(t, &cfdclean.IncOptions{Workers: 1}); one != hash || ix1 != ix {
				t.Errorf("seed %d %s: Workers=1 run differs from the default run", seed, kind)
			}
			lines = append(lines, fmt.Sprintf("%d %s %s", seed, kind, hash))
			if i == 0 {
				lines = append(lines, fmt.Sprintf("%d %s index %s", seed, kind, ix))
			}
		}
	}
	checkRecorded(t, path, lines)
}
