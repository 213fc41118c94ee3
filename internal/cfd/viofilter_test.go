package cfd

import (
	"fmt"
	"math/rand"
	"testing"

	"cfdclean/internal/relation"
)

// naiveMatch is VioFilter's contract spelled out field by field: every
// set field must hold, and an unset one (empty rule, negative attribute,
// zero bound) holds for everything.
func naiveMatch(f VioFilter, v Violation) bool {
	mentions := v.N.A == f.Attr
	for _, x := range v.N.X {
		mentions = mentions || x == f.Attr
	}
	return (f.Rule == "" || v.N.Name == f.Rule) &&
		(f.Attr < 0 || mentions) &&
		(f.MinID == 0 || v.T >= f.MinID) &&
		(f.MaxID == 0 || v.T <= f.MaxID)
}

// checkFilter holds VioFilter.Match to naiveMatch on every violation
// Detect reports.
func checkFilter(t *testing.T, tag string, s *VioStore, f VioFilter) {
	t.Helper()
	for _, v := range s.Detect() {
		if got, want := f.Match(v), naiveMatch(f, v); got != want {
			t.Fatalf("%s: %+v.Match(%v) = %v, want %v", tag, f, v, got, want)
		}
	}
}

// TestVioFilterMatchOnPaperData holds Match to naiveMatch for every rule,
// every attribute and tuple-id ranges over the paper's instance.
func TestVioFilterMatchOnPaperData(t *testing.T) {
	rel := paperData(t)
	sigma := paperSigma(rel.Schema())
	s := NewVioStore(rel, sigma)
	defer s.Close()

	checkFilter(t, "any", s, AnyVio())
	// Every rule in sigma.
	for _, n := range sigma {
		f := AnyVio()
		f.Rule = n.Name
		checkFilter(t, "rule "+n.Name, s, f)
	}
	// Every attribute.
	for a := 0; a < rel.Schema().Arity(); a++ {
		checkFilter(t, fmt.Sprintf("attr %d", a), s, VioFilter{Attr: a})
	}
	// A range that cuts the dirty set in half, and a rule with a range.
	mid := relation.TupleID(rel.Size() / 2)
	f := AnyVio()
	f.MaxID = mid
	checkFilter(t, "min side", s, f)
	f = AnyVio()
	f.MinID = mid + 1
	checkFilter(t, "max side", s, f)
	f.Rule = sigma[0].Name
	checkFilter(t, "rule and range", s, f)
}

// TestVioFilterFuzz drives random mutation sequences and asserts after
// each step that a randomly chosen filter's Match agrees with naiveMatch
// on the store's Detect list (that the list itself is the canonical one is
// viostore_test.go's fuzz).
func TestVioFilterFuzz(t *testing.T) {
	schema := orderSchema()
	sigma := paperSigma(schema)
	pools := [][]string{
		{"a23", "a12", "a89"},
		{"H. Porter", "J. Denver", "Snow White"},
		{"17.99", "7.94", "18.99"},
		{"212", "215", "610", "415"},
		{"8983490", "3456789", "3345677", "5674322"},
		{"Walnut", "Spruce", "Canel", "Broad"},
		{"PHI", "NYC", "CHI"},
		{"PA", "NY", "IL"},
		{"10012", "19014", "60614"},
	}
	randVal := func(rng *rand.Rand, a int) relation.Value {
		if rng.Intn(8) == 0 {
			return relation.NullValue
		}
		p := pools[a]
		return relation.S(p[rng.Intn(len(p))])
	}
	randFilter := func(rng *rand.Rand, rel *relation.Relation) VioFilter {
		f := AnyVio()
		if rng.Intn(3) == 0 {
			f.Rule = sigma[rng.Intn(len(sigma))].Name
		}
		if rng.Intn(3) == 0 {
			f.Attr = rng.Intn(schema.Arity())
		}
		if rng.Intn(3) == 0 {
			n := rel.NextID()
			f.MinID = relation.TupleID(rng.Int63n(int64(n)))
			f.MaxID = f.MinID + relation.TupleID(rng.Int63n(int64(n)))
		}
		return f
	}

	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rel := relation.New(schema)
			for i := 0; i < 12; i++ {
				vals := make([]relation.Value, schema.Arity())
				for a := range vals {
					vals[a] = randVal(rng, a)
				}
				rel.MustInsert(&relation.Tuple{Vals: vals})
			}
			s := NewVioStore(rel, sigma)
			defer s.Close()

			for step := 0; step < 100; step++ {
				tag := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(10); {
				case op < 3:
					vals := make([]relation.Value, schema.Arity())
					for a := range vals {
						vals[a] = randVal(rng, a)
					}
					rel.MustInsert(&relation.Tuple{Vals: vals})
				case op < 5:
					ts := rel.Tuples()
					if len(ts) == 0 {
						continue
					}
					rel.Delete(ts[rng.Intn(len(ts))].ID)
				default:
					ts := rel.Tuples()
					if len(ts) == 0 {
						continue
					}
					tu := ts[rng.Intn(len(ts))]
					a := rng.Intn(schema.Arity())
					if _, err := rel.Set(tu.ID, a, randVal(rng, a)); err != nil {
						t.Fatal(err)
					}
				}
				checkFilter(t, tag, s, randFilter(rng, rel))
			}
		})
	}
}

// The zero VioFilter pins attribute 0 by construction; AnyVio is the
// documented way to match everything. Guard the distinction.
func TestVioFilterZeroValuePinsAttrZero(t *testing.T) {
	rel := paperData(t)
	sigma := paperSigma(rel.Schema())
	s := NewVioStore(rel, sigma)
	defer s.Close()
	dropped := 0
	for _, v := range s.Detect() {
		mentions := containsAttr(v.N.X, 0) || v.N.A == 0
		if (VioFilter{}).Match(v) != mentions {
			t.Fatalf("zero-value filter on a violation of %s (attrs %v->%d): %v", v.N.Name, v.N.X, v.N.A, !mentions)
		}
		if !mentions {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no violation the zero-value filter drops: the fixture no longer tests it")
	}
}
