package repair

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// Metamorphic relations of BATCHREPAIR: properties of the algorithm that
// need no second implementation to check, each a rewrite of the input
// whose effect on the repair is known in advance. On §7.1's generator at
// 500 and 2 500 tuples, seeds 1–3, weighted and unweighted:
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
					run := func(d *relation.Relation) *Result {
						t.Helper()
						res, err := Batch(d, ds.Sigma, nil)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					base := run(ds.Dirty)
					want := changed(t, ds.Dirty, base.Repair, 0)
					if len(want) == 0 || len(want) != base.Changes {
						t.Fatalf("the repair changed %d cells, Result.Changes says %d", len(want), base.Changes)
					}
					same := func(what string, in *relation.Relation, res *Result, shift relation.TupleID) {
						t.Helper()
						if got := changed(t, in, res.Repair, shift); !maps.Equal(got, want) {
							t.Errorf("%s: the repair changed %d cells, %d of them as the original's; want its %d", what, len(got), common(got, want), len(want))
						}
					}

					arity := ds.Dirty.Schema().Arity()
					halved := rebuild(t, ds.Dirty, false, func(tp *relation.Tuple) {
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
						t.Errorf("halved weights: cost %v, want exactly half of %v", res.Cost, base.Cost)
					}

					const shift = 1_000_003
					shifted := rebuild(t, ds.Dirty, false, func(tp *relation.Tuple) { tp.ID += shift })
					res = run(shifted)
					same("shifted ids", shifted, res, shift)
					if res.Cost != base.Cost {
						t.Errorf("shifted ids: cost %v, want %v", res.Cost, base.Cost)
					}

					reversed := rebuild(t, ds.Dirty, true, func(*relation.Tuple) {})
					res = run(reversed)
					same("reversed order", reversed, res, 0)
					if math.Abs(res.Cost-base.Cost) > 1e-9*base.Cost {
						t.Errorf("reversed order: cost %v, want %v within 1e-9 relative", res.Cost, base.Cost)
					}

					if again := run(base.Repair); again.Changes != 0 {
						t.Errorf("a second pass changed %d cells", again.Changes)
					}
				})
			}
		}
	}
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
