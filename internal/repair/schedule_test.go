package repair

import (
	"bytes"
	"fmt"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// componentFixture builds a database over (K, V, P) under the FD K → V:
// for each entry of sizes, that many tuples share a key and disagree on V
// — one violation-graph component per key — and clean more tuples carry
// keys of their own.
func componentFixture(t testing.TB, sizes []int, clean int) (*relation.Relation, []*cfd.Normal) {
	t.Helper()
	s := relation.MustSchema("r", "K", "V", "P")
	r := relation.New(s)
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			// Two values per component, unevenly split, so the repair has
			// a majority to find.
			v := fmt.Sprintf("v%d-a", c)
			if i%4 == 1 {
				v = fmt.Sprintf("v%d-b%d", c, i)
			}
			r.MustInsert(relation.NewTuple(0, fmt.Sprintf("k%d", c), v, fmt.Sprintf("p%d", i)))
		}
	}
	for i := 0; i < clean; i++ {
		r.MustInsert(relation.NewTuple(0, fmt.Sprintf("c%d", i), "v", "p"))
	}
	fd, err := cfd.FD("fd", s, []string{"K"}, []string{"V"})
	if err != nil {
		t.Fatal(err)
	}
	return r, fd.Normalize()
}

// TestScheduleBySize pins the size-aware schedule: a giant component
// beside crumbs never gets a second engine, equal components do when
// Workers allows one, and neither changes a byte of the repair.
func TestScheduleBySize(t *testing.T) {
	equal := make([]int, 8)
	for i := range equal {
		equal[i] = 60
	}
	for _, tc := range []struct {
		name   string
		sizes  []int
		clean  int
		engine func(workers int) bool // what Engines must satisfy
	}{
		{"giant-and-crumbs", []int{120, 2, 2, 2, 3, 2}, 170, func(int) bool { return false }},
		{"equal-components", equal, 0, func(w int) bool { return w > 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, sigma := componentFixture(t, tc.sizes, tc.clean)
			var want []byte
			for _, w := range []int{1, 2, 4, 8} {
				res, err := Batch(d, sigma, &Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !cfd.Satisfies(res.Repair, sigma) {
					t.Fatalf("workers=%d: repair violates sigma", w)
				}
				if res.Components != len(tc.sizes) || res.LargestComponent != tc.sizes[0] {
					t.Errorf("workers=%d: Components=%d LargestComponent=%d, want %d and %d",
						w, res.Components, res.LargestComponent, len(tc.sizes), tc.sizes[0])
				}
				if got := res.Engines > 1; got != tc.engine(w) || res.Engines > w {
					t.Errorf("workers=%d: Engines=%d", w, res.Engines)
				}
				got := serialize(t, res.Repair)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: repair differs from workers=1", w)
				}
			}
		})
	}
}

// TestFindVAllocates pins FINDV's allocation budget: on an engine that has
// planned the violation once — support index built, probe and buffers
// grown, distances memoized — a call allocates nothing.
func TestFindVAllocates(t *testing.T) {
	ds, err := gen.New(gen.Config{Size: 500, NoiseRate: 0.05, ConstShare: 0.5, PatternRows: 600, Weights: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	work := ds.Dirty.Clone()
	o := (*Options)(nil).withDefaults()
	e := newEngine(work, ds.Dirty, cfd.Compile(work.Dict(), ds.Sigma), nil, o)
	defer e.store.Close()
	calls := 0
	e.store.EachViolation(func(gi int, v cfd.Violation) {
		tp := work.Tuple(v.T)
		for _, b := range e.groups[gi].X() {
			if _, _, _, ok := e.findV(gi, tp, b); !ok {
				continue
			}
			calls++
			if n := testing.AllocsPerRun(10, func() { e.findV(gi, tp, b) }); n != 0 {
				t.Errorf("findV(group %d, t%d, attr %d) allocates %v times per call", gi, tp.ID, b, n)
			}
		}
	})
	if calls == 0 {
		t.Fatal("no violation offered FINDV a candidate; the fixture exercises nothing")
	}
}
