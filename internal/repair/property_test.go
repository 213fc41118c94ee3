package repair

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// This file is the repair-correctness test battery: property tests over
// randomized schemas, tableaux and mutation sequences asserting, for
// every instance,
//
//	(a) the repair satisfies every CFD,
//	(b) repairing the repair changes nothing,
//	(c) repair cost is monotone under nested noise — removing injected
//	    noise never makes the repair more expensive.
//
// Seeds are fixed so failures reproduce exactly.

// randInstance generates a random schema, a satisfiable random Σ over
// it, and a random relation drawn from small per-attribute value pools
// (small pools keep violations frequent).
func randInstance(t *testing.T, rng *rand.Rand) (*relation.Relation, []*cfd.Normal) {
	t.Helper()
	return drawInstance(t, rng, 20, 41)
}

// drawInstance is randInstance with lo + rng.Intn(spread) tuples.
func drawInstance(t *testing.T, rng *rand.Rand, lo, spread int) (*relation.Relation, []*cfd.Normal) {
	t.Helper()
	arity := 4 + rng.Intn(3)
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	schema := relation.MustSchema("rand", attrs...)

	pools := make([][]string, arity)
	for a := range pools {
		n := 2 + rng.Intn(3)
		pools[a] = make([]string, n)
		for i := range pools[a] {
			pools[a][i] = fmt.Sprintf("a%dv%d", a, i)
		}
	}
	pick := func(a int) string { return pools[a][rng.Intn(len(pools[a]))] }

	// Random tableaux: a few embedded FDs plus a few constant pattern
	// rows; regenerate until Σ is satisfiable (constant rows over the
	// same LHS value can conflict).
	var sigma []*cfd.Normal
	for try := 0; ; try++ {
		if try > 50 {
			t.Fatal("could not draw a satisfiable random sigma")
		}
		var cfds []*cfd.CFD
		nFD := 1 + rng.Intn(2)
		for i := 0; i < nFD; i++ {
			perm := rng.Perm(arity)
			nLHS := 1 + rng.Intn(2)
			lhs := make([]string, nLHS)
			for j := range lhs {
				lhs[j] = attrs[perm[j]]
			}
			rhs := []string{attrs[perm[nLHS]]}
			fd, err := cfd.FD(fmt.Sprintf("fd%d", i), schema, lhs, rhs)
			if err != nil {
				t.Fatal(err)
			}
			cfds = append(cfds, fd)
		}
		nConst := rng.Intn(3)
		for i := 0; i < nConst; i++ {
			perm := rng.Perm(arity)
			la, ra := perm[0], perm[1]
			row := []cfd.Cell{cfd.C(pick(la)), cfd.C(pick(ra))}
			c, err := cfd.New(fmt.Sprintf("const%d", i), schema,
				[]string{attrs[la]}, []string{attrs[ra]}, row)
			if err != nil {
				t.Fatal(err)
			}
			cfds = append(cfds, c)
		}
		sigma = cfd.NormalizeAll(cfds)
		if _, err := cfd.Satisfiable(sigma); err == nil {
			break
		}
	}

	d := relation.New(schema)
	size := lo + rng.Intn(spread)
	for i := 0; i < size; i++ {
		vals := make([]relation.Value, arity)
		for a := range vals {
			if rng.Intn(20) == 0 {
				vals[a] = relation.NullValue
			} else {
				vals[a] = relation.S(pick(a))
			}
		}
		tu := &relation.Tuple{Vals: vals}
		d.MustInsert(tu)
		for a := range vals {
			tu.SetWeight(a, 0.1+0.9*rng.Float64())
		}
	}
	return d, sigma
}

func serialize(t *testing.T, rel *relation.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := relation.WriteCSV(rel, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRepairProperties runs Batch and asserts property (a); it returns
// the result for further checks.
func checkRepairProperties(t *testing.T, tag string, d *relation.Relation, sigma []*cfd.Normal) *Result {
	t.Helper()
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatalf("%s: repair violates sigma", tag)
	}
	return res
}

// TestPropertyRandomInstances is properties (a) and (b) over random
// schemas and tableaux.
func TestPropertyRandomInstances(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d, sigma := randInstance(t, rng)
			res := checkRepairProperties(t, "random", d, sigma)
			if serializeEq := bytes.Equal(serialize(t, d), serialize(t, d.Clone())); !serializeEq {
				t.Fatal("clone serialization differs; serialization is unstable")
			}
			// Repairing a repair is a no-op (idempotence at property scale).
			again, err := Batch(res.Repair, sigma, nil)
			if err != nil {
				t.Fatal(err)
			}
			if again.Changes != 0 || again.Cost != 0 {
				t.Fatalf("repair of a repair changed %d cells (cost %v)", again.Changes, again.Cost)
			}
		})
	}
}

// TestPropertyMutationSequences drives random insert/delete/update
// sequences into an instance and re-checks (a) after every burst: the
// engine must hold its contract on any reachable database state, not
// just freshly loaded ones.
func TestPropertyMutationSequences(t *testing.T) {
	for seed := int64(20); seed <= 43; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d, sigma := randInstance(t, rng)
			arity := d.Schema().Arity()
			pickVal := func(a int) relation.Value {
				// Steal a value the relation already holds (or null) so
				// mutations collide with existing buckets.
				ts := d.Tuples()
				if len(ts) == 0 || rng.Intn(10) == 0 {
					return relation.NullValue
				}
				return ts[rng.Intn(len(ts))].Vals[a]
			}
			for burst := 0; burst < 3; burst++ {
				for step := 0; step < 15; step++ {
					switch op := rng.Intn(10); {
					case op < 2: // insert
						vals := make([]relation.Value, arity)
						for a := range vals {
							vals[a] = pickVal(a)
						}
						d.MustInsert(&relation.Tuple{Vals: vals})
					case op < 3: // delete
						if ts := d.Tuples(); len(ts) > 5 {
							d.Delete(ts[rng.Intn(len(ts))].ID)
						}
					default: // update
						ts := d.Tuples()
						tu := ts[rng.Intn(len(ts))]
						a := rng.Intn(arity)
						if _, err := d.Set(tu.ID, a, pickVal(a)); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkRepairProperties(t, fmt.Sprintf("burst%d", burst), d, sigma)
			}
		})
	}
}

// TestPropertyCostMonotoneUnderNestedNoise is property (c): with the
// noise of one generated workload applied cell by cell, a database
// carrying a subset of another's noise never costs more to repair.
// (Nesting matters: two independently drawn noise sets of different
// rates are not comparable instance by instance.)
func TestPropertyCostMonotoneUnderNestedNoise(t *testing.T) {
	for _, seed := range []int64{3, 11, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ds, err := gen.New(gen.Config{Size: 250, NoiseRate: 0.10, ConstShare: 0.5, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			// Enumerate the injected noise in canonical cell order.
			type cell struct {
				id relation.TupleID
				a  int
				v  relation.Value
			}
			var noise []cell
			for _, tu := range ds.Opt.Tuples() {
				dirty := ds.Dirty.Tuple(tu.ID)
				for a := range tu.Vals {
					if !relation.StrictEq(tu.Vals[a], dirty.Vals[a]) {
						noise = append(noise, cell{id: tu.ID, a: a, v: dirty.Vals[a]})
					}
				}
			}
			if len(noise) < 8 {
				t.Fatalf("only %d noisy cells; test is vacuous", len(noise))
			}
			prevCost := -1.0
			for _, frac := range []int{0, 1, 2, 3, 4} {
				k := len(noise) * frac / 4
				d := ds.Opt.Clone()
				for _, c := range noise[:k] {
					if _, err := d.Set(c.id, c.a, c.v); err != nil {
						t.Fatal(err)
					}
				}
				res, err := Batch(d, ds.Sigma, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !cfd.Satisfies(res.Repair, ds.Sigma) {
					t.Fatalf("k=%d: repair violates sigma", k)
				}
				if res.Cost < prevCost {
					t.Fatalf("cost decreased as noise grew: %d cells -> %v, fewer cells -> %v",
						k, res.Cost, prevCost)
				}
				if k == 0 && res.Cost != 0 {
					t.Fatalf("clean database repaired at cost %v", res.Cost)
				}
				prevCost = res.Cost
			}
		})
	}
}
