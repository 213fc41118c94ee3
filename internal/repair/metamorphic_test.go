package repair

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// Metamorphic relations of BATCHREPAIR: properties of the algorithm that
// need no second implementation to check, each a rewrite of the input
// whose effect on the repair is known in advance. On §7.1's generator at
// 500 and 2 500 tuples, seeds 1–3, weighted and unweighted, and on 500
// of FuzzBatchRepairVsWalk's small drawn instances:
//
//   - halving every weight halves Result.Cost exactly (halving is exact in
//     floating point and the cost model is linear in w) and changes the
//     same cells to the same values;
//   - shifting every tuple id changes nothing: the same cells, values and
//     cost;
//   - reversing the insertion order changes the same cells to the same
//     values, the cost equal up to the order its terms are summed in;
//   - a second pass over the repair changes no cell.

// cell names one attribute value of one tuple.
type cell struct {
	id relation.TupleID
	a  int
}

// rebuild copies d's tuples into a fresh relation over its schema, in
// reverse order when reverse is set, each passed through f first.
func rebuild(t *testing.T, d *relation.Relation, reverse bool, f func(*relation.Tuple)) *relation.Relation {
	t.Helper()
	ts := slices.Clone(d.Tuples())
	if reverse {
		slices.Reverse(ts)
	}
	out := relation.New(d.Schema())
	for _, tp := range ts {
		c := tp.Clone()
		f(c)
		if err := out.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// changed maps every cell the repair out holds differently from in to its
// new value, keyed by the tuple's id less shift.
func changed(t *testing.T, in, out *relation.Relation, shift relation.TupleID) map[cell]relation.Value {
	t.Helper()
	before := make(map[relation.TupleID]*relation.Tuple, in.Size())
	for _, tp := range in.Tuples() {
		before[tp.ID] = tp
	}
	diff := map[cell]relation.Value{}
	for _, tp := range out.Tuples() {
		old, ok := before[tp.ID]
		if !ok {
			t.Fatalf("the repair holds tuple %d, the input does not", tp.ID)
		}
		for a, v := range tp.Vals {
			if !relation.StrictEqVals([]relation.Value{v}, []relation.Value{old.Vals[a]}) {
				diff[cell{tp.ID - shift, a}] = v
			}
		}
	}
	return diff
}

func TestBatchMetamorphicRelations(t *testing.T) {
	sizes := []int{500, 2500}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, size := range sizes {
		for _, weighted := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("n%d/w%t/seed%d", size, weighted, seed), func(t *testing.T) {
					ds, err := gen.New(gen.Config{Size: size, NoiseRate: 0.05, Seed: seed, Weights: weighted})
					if err != nil {
						t.Fatal(err)
					}
					if n := checkMetamorphic(t, "", ds.Dirty, ds.Sigma); n == 0 {
						t.Fatal("the repair changed no cell")
					}
				})
			}
		}
	}
}

// TestBatchMetamorphicOnDrawnInstances holds the four relations on the
// instances FuzzBatchRepairVsWalk draws — drawInstance(rng, 8, 17), then
// 0–3 deletes, which leave the physical order off id order — for seeds
// 1–500 (1–100 under -short). The checks stay out of the fuzz body, so
// the fuzzer's exec rate does not pay for four more repairs an input.
func TestBatchMetamorphicOnDrawnInstances(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 100
	}
	changing := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, sigma := drawInstance(t, rng, 8, 17)
		for range rng.Intn(4) {
			d.Delete(d.Tuples()[rng.Intn(d.Size())].ID)
		}
		if checkMetamorphic(t, fmt.Sprintf("seed %d: ", seed), d, sigma) > 0 {
			changing++
		}
	}
	t.Logf("%d of %d draws change a cell", changing, seeds)
	if changing < int(seeds)*9/10 {
		t.Fatalf("only %d of %d draws change a cell", changing, seeds)
	}
}

// checkMetamorphic repairs d under sigma and holds the four relations to
// that repair, naming a failure with tag; it returns the cells the
// repair changed.
func checkMetamorphic(t *testing.T, tag string, d *relation.Relation, sigma []*cfd.Normal) int {
	t.Helper()
	run := func(d *relation.Relation) *Result {
		t.Helper()
		res, err := Batch(d, sigma, nil)
		if err != nil {
			t.Fatal(tag, err)
		}
		return res
	}
	base := run(d)
	want := changed(t, d, base.Repair, 0)
	if len(want) != base.Changes {
		t.Errorf("%sthe repair changed %d cells, Result.Changes says %d", tag, len(want), base.Changes)
	}
	same := func(what string, in *relation.Relation, res *Result, shift relation.TupleID) {
		t.Helper()
		if got := changed(t, in, res.Repair, shift); !maps.Equal(got, want) {
			t.Errorf("%s%s: the repair changed %d cells, %d of them as the original's; want its %d", tag, what, len(got), common(got, want), len(want))
		}
	}

	arity := d.Schema().Arity()
	halved := rebuild(t, d, false, func(tp *relation.Tuple) {
		for a := 0; a < arity; a++ {
			w := 1.0
			if tp.W != nil {
				w = tp.W[a]
			}
			tp.SetWeight(a, w/2)
		}
	})
	res := run(halved)
	same("halved weights", halved, res, 0)
	if res.Cost != base.Cost/2 {
		t.Errorf("%shalved weights: cost %v, want exactly half of %v", tag, res.Cost, base.Cost)
	}

	const shift = 1_000_003
	shifted := rebuild(t, d, false, func(tp *relation.Tuple) { tp.ID += shift })
	res = run(shifted)
	same("shifted ids", shifted, res, shift)
	if res.Cost != base.Cost {
		t.Errorf("%sshifted ids: cost %v, want %v", tag, res.Cost, base.Cost)
	}

	reversed := rebuild(t, d, true, func(*relation.Tuple) {})
	res = run(reversed)
	same("reversed order", reversed, res, 0)
	if math.Abs(res.Cost-base.Cost) > 1e-9*base.Cost {
		t.Errorf("%sreversed order: cost %v, want %v within 1e-9 relative", tag, res.Cost, base.Cost)
	}

	if again := run(base.Repair); again.Changes != 0 {
		t.Errorf("%sa second pass changed %d cells", tag, again.Changes)
	}
	return len(want)
}

// common counts the cells got changes to the value want does.
func common(got, want map[cell]relation.Value) int {
	n := 0
	for k, v := range got {
		if w, ok := want[k]; ok && relation.StrictEqVals([]relation.Value{v}, []relation.Value{w}) {
			n++
		}
	}
	return n
}
