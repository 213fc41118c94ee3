package increpair

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// randomBatch draws one ApplyOps batch against cur: deletes of live ids,
// several sets on one tuple, id-less inserts, and explicit-id inserts
// that reuse a freed slot or pick fresh ids — and, about one batch in
// three, one defect ApplyOps must refuse.
func randomBatch(rng *rand.Rand, cur *relation.Relation) (deletes []relation.TupleID, sets []SetOp, inserts []*relation.Tuple) {
	live := cur.Tuples()
	pickLive := func() relation.TupleID { return live[rng.Intn(len(live))].ID }
	arity := cur.Schema().Arity()
	taken := map[relation.TupleID]bool{}
	for n := rng.Intn(3); n > 0 && len(live) > 4; n-- {
		if id := pickLive(); !taken[id] {
			taken[id] = true
			deletes = append(deletes, id)
		}
	}
	for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
		id := pickLive()
		if taken[id] {
			continue
		}
		// One to three cells of the same tuple.
		for k := 1 + rng.Intn(3); k > 0; k-- {
			sets = append(sets, SetOp{ID: id, Attr: rng.Intn(arity), Value: randomDelta(rng, 1)[0].Vals[rng.Intn(arity)]})
		}
	}
	inserts = randomDelta(rng, rng.Intn(4))
	switch rng.Intn(4) {
	case 0: // explicit ids: a slot this batch frees, or fresh ids
		for i, t := range inserts {
			if i < len(deletes) {
				t.ID = deletes[i]
			} else {
				t.ID = cur.NextID() + relation.TupleID(5+i)
			}
		}
	case 1:
		for _, t := range inserts {
			t.W = []float64{0.9, 0.1, 0.5, 1, 1, 0.3, 0.7, 0.2, 0.4}
		}
	}
	if rng.Intn(3) != 0 {
		return deletes, sets, inserts
	}
	switch rng.Intn(9) {
	case 0:
		deletes = append(deletes, cur.NextID()+100)
	case 1:
		if len(deletes) > 0 {
			deletes = append(deletes, deletes[0])
		}
	case 2:
		sets = append(sets, SetOp{ID: pickLive(), Attr: arity})
	case 3:
		if len(deletes) > 0 {
			sets = append(sets, SetOp{ID: deletes[0], Attr: 1})
		}
	case 4:
		inserts = append(inserts, relation.NewTuple(0, "too", "short"))
	case 5:
		inserts = append(inserts, &relation.Tuple{Vals: randomDelta(rng, 1)[0].Vals, W: []float64{1}})
	case 6: // a live id, or one updated in the same batch
		t := randomDelta(rng, 1)[0]
		t.ID = pickLive()
		if len(sets) > 0 {
			t.ID = sets[0].ID
		}
		inserts = append(inserts, t)
	case 7: // the same explicit id twice
		a, b := randomDelta(rng, 2)[0], randomDelta(rng, 2)[1]
		a.ID, b.ID = cur.NextID()+50, cur.NextID()+50
		inserts = append(inserts, a, b)
	case 8: // id-less beside a fresh explicit id
		a, b := randomDelta(rng, 2)[0], randomDelta(rng, 2)[1]
		b.ID = cur.NextID() + 60
		inserts = append(inserts, a, b)
	}
	return deletes, sets, inserts
}

// TestCheckRefusesWeightsOutsideUnitRange: the cost model takes w(t,A) in
// [0,1] (§3.2). Check, and so ApplyOps, refuses an insert weighing NaN, a
// negative number or more than 1, with an error naming the insert and the
// attribute, and leaves the session as it was: one NaN accepted would make
// the session's cost NaN for good.
func TestCheckRefusesWeightsOutsideUnitRange(t *testing.T) {
	sess, err := NewSession(cleanPaperData(t), cfd.NormalizeAll(paperCFDs(orderSchema())), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, w := range []float64{math.NaN(), -1, 2} {
		bad := t5()
		bad.SetWeight(0, 1)
		bad.W[6] = w // SetWeight refuses such a weight
		batch := []*relation.Tuple{t5(), bad}
		before := sess.Snapshot()
		_, cerr := sess.Check(nil, nil, batch)
		_, _, aerr := sess.ApplyOps(nil, nil, batch)
		for _, err := range []error{cerr, aerr} {
			if err == nil || !strings.Contains(err.Error(), "insert 1") || !strings.Contains(err.Error(), "CT") {
				t.Errorf("weight %v: got %v; want a refusal naming insert 1 and attribute CT", w, err)
			}
		}
		if sess.Snapshot() != before {
			t.Errorf("weight %v: the refused batch changed the session", w)
		}
	}
	ends := t5()
	ends.SetWeight(6, 0)
	ends.SetWeight(7, 1)
	if _, _, err := sess.ApplyOps(nil, nil, []*relation.Tuple{ends}); err != nil {
		t.Fatalf("weights 0 and 1: %v", err)
	}
	if c := sess.Snapshot().Cost; math.IsNaN(c) || c < 0 {
		t.Errorf("session cost %v after weights 0 and 1", c)
	}
}

// TestCheckPredictsApplyOps: under every §5.2 ordering, over random
// valid and invalid batches, Check refuses exactly what ApplyOps refuses
// (with the same error), mutates nothing, and promises the journal
// version ApplyOps then lands on — which is what lets the service log a
// batch while its pass runs.
func TestCheckPredictsApplyOps(t *testing.T) {
	sigma := cfd.NormalizeAll(paperCFDs(orderSchema()))
	for _, ord := range []Ordering{Linear, ByViolations, ByWeight} {
		sess, err := NewSession(cleanPaperData(t), sigma, &Options{Ordering: ord})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(310 + ord)))
		accepted, refused := 0, 0
		for i := 0; i < 300; i++ {
			deletes, sets, inserts := randomBatch(rng, sess.Current())
			before := sess.Snapshot()
			landing, cerr := sess.Check(deletes, sets, inserts)
			if sess.Snapshot() != before {
				t.Fatalf("%v batch %d: Check mutated the session", ord, i)
			}
			_, _, aerr := sess.ApplyOps(deletes, sets, inserts)
			if (cerr == nil) != (aerr == nil) || (cerr != nil && cerr.Error() != aerr.Error()) {
				t.Fatalf("%v batch %d: Check said %v, ApplyOps %v", ord, i, cerr, aerr)
			}
			if cerr != nil {
				refused++
				if sess.Snapshot() != before {
					t.Fatalf("%v batch %d: a refused batch mutated the session", ord, i)
				}
				continue
			}
			accepted++
			if got := sess.Snapshot().Version; got != landing {
				t.Fatalf("%v batch %d (%d deletes, %d sets, %d inserts): landed on %d, Check promised %d",
					ord, i, len(deletes), len(sets), len(inserts), got, landing)
			}
		}
		if accepted < 100 || refused < 30 {
			t.Fatalf("%v: %d accepted and %d refused batches; the generator lost its mix", ord, accepted, refused)
		}
		if !sess.Satisfied() {
			t.Fatalf("%v: session violates sigma", ord)
		}
		sess.Close()
		if _, err := sess.Check(nil, nil, nil); err == nil {
			t.Fatalf("%v: Check on a closed session must fail", ord)
		}
	}
}
