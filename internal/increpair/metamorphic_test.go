package increpair

import (
	"fmt"
	"slices"
	"testing"

	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// Metamorphic relations of INCREPAIR, tried on §7.1's generator at 500
// and 2 500 tuples, seeds 1–3, weighted and unweighted, over a session
// whose base is Dopt without the tuples the generator dirtied:
//
//   - a batch whose arrivals violate nothing (the rest of Dopt) changes no
//     stored cell and no arriving one, at cost 0;
//   - the L, V and W orderings repair each dirty tuple, arriving as a
//     batch of its own, to the same values at the same cost;
//   - halving every weight, the base's and the arrivals', halves the cost
//     of a batch of every dirty tuple exactly and repairs it to the same
//     values.

// metamorphicGrid runs f over the generator grid.
func metamorphicGrid(t *testing.T, f func(t *testing.T, clean, arrivals []*relation.Tuple, sch *relation.Schema, ds *gen.Dataset)) {
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
					var clean, arrivals []*relation.Tuple
					for _, tp := range ds.Opt.Tuples() {
						if !slices.Contains(ds.DirtyIDs, tp.ID) {
							clean = append(clean, tp)
						}
					}
					for _, id := range ds.DirtyIDs {
						p, _ := ds.Dirty.Position(id)
						arrivals = append(arrivals, ds.Dirty.Tuples()[p])
					}
					if len(arrivals) == 0 {
						t.Fatal("the generator dirtied no tuple")
					}
					f(t, clean, arrivals, ds.Schema, ds)
				})
			}
		}
	}
}

// relationOf builds a relation over sch holding copies of ts, each passed
// through f.
func relationOf(t *testing.T, sch *relation.Schema, ts []*relation.Tuple, f func(*relation.Tuple)) *relation.Relation {
	t.Helper()
	r := relation.New(sch)
	for _, tp := range ts {
		c := tp.Clone()
		f(c)
		if err := r.Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// copies returns copies of ts, each passed through f.
func copies(ts []*relation.Tuple, f func(*relation.Tuple)) []*relation.Tuple {
	out := make([]*relation.Tuple, len(ts))
	for i, tp := range ts {
		out[i] = tp.Clone()
		f(out[i])
	}
	return out
}

func keep(*relation.Tuple) {}

// sameRows reports whether a and b hold the same ids and values in the
// same order.
func sameRows(a, b []*relation.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y *relation.Tuple) bool {
		return x.ID == y.ID && relation.StrictEqVals(x.Vals, y.Vals)
	})
}

func TestIncCleanArrivalsChangeNothing(t *testing.T) {
	metamorphicGrid(t, func(t *testing.T, clean, _ []*relation.Tuple, sch *relation.Schema, ds *gen.Dataset) {
		half := len(clean) / 2
		s, err := NewSession(relationOf(t, sch, clean[:half], keep), ds.Sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.Initial() != nil {
			t.Fatal("a clean base was repaired at session start")
		}
		res, err := s.ApplyDelta(copies(clean[half:], keep))
		if err != nil {
			t.Fatal(err)
		}
		if res.Changes != 0 || res.Cost != 0 {
			t.Fatalf("clean arrivals: %d cells changed at cost %v", res.Changes, res.Cost)
		}
		if !sameRows(s.Current().Tuples(), clean) {
			t.Fatal("clean arrivals: the stored rows are not the base and the arrivals as given")
		}
	})
}

func TestIncOrderingsAgreeOnOneTupleBatches(t *testing.T) {
	metamorphicGrid(t, func(t *testing.T, clean, arrivals []*relation.Tuple, sch *relation.Schema, ds *gen.Dataset) {
		arrivals = arrivals[:min(len(arrivals), 20)]
		var sessions []*Session
		for _, o := range []Ordering{Linear, ByViolations, ByWeight} {
			s, err := NewSession(relationOf(t, sch, clean, keep), ds.Sigma, &Options{Ordering: o})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sessions = append(sessions, s)
		}
		for i, tp := range arrivals {
			var first *Result
			for j, s := range sessions {
				res, err := s.ApplyDelta(copies([]*relation.Tuple{tp}, keep))
				if err != nil {
					t.Fatal(err)
				}
				if j == 0 {
					first = res
				} else if !sameRows(res.Inserted, first.Inserted) || res.Cost != first.Cost {
					t.Fatalf("arrival %d (tuple %d): ordering %v repairs it to %v at cost %v, %v to %v at cost %v",
						i, tp.ID, Ordering(j), res.Inserted[0].Vals, res.Cost, Linear, first.Inserted[0].Vals, first.Cost)
				}
			}
		}
	})
}

func TestIncHalvedWeightsHalveTheCost(t *testing.T) {
	metamorphicGrid(t, func(t *testing.T, clean, arrivals []*relation.Tuple, sch *relation.Schema, ds *gen.Dataset) {
		arity := sch.Arity()
		halve := func(tp *relation.Tuple) {
			for a := 0; a < arity; a++ {
				w := 1.0
				if tp.W != nil {
					w = tp.W[a]
				}
				tp.SetWeight(a, w/2)
			}
		}
		run := func(f func(*relation.Tuple)) *Result {
			s, err := NewSession(relationOf(t, sch, clean, f), ds.Sigma, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			res, err := s.ApplyDelta(copies(arrivals, f))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base, halved := run(keep), run(halve)
		if base.Changes == 0 {
			t.Fatal("the dirty arrivals were repaired at no change")
		}
		if !sameRows(halved.Inserted, base.Inserted) {
			t.Error("halved weights repair the arrivals to other values")
		}
		if halved.Cost != base.Cost/2 {
			t.Errorf("halved weights: cost %v, want exactly half of %v", halved.Cost, base.Cost)
		}
	})
}
