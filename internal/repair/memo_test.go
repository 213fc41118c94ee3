package repair

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// driveBatch is Batch with its loop driven from the test: the same set-up,
// the same components in the same order, the same seeding, and check
// called after every execute, every instantiation round that changed
// something and every reset between components. It returns the repaired
// relation.
func driveBatch(t *testing.T, d *relation.Relation, sigma []*cfd.Normal, check func(e *engine)) *relation.Relation {
	t.Helper()
	o := (*Options)(nil).withDefaults()
	work := d.Clone()
	store := cfd.Compile(work.Dict(), sigma).NewVioStore(work, o.Workers)
	defer store.Close()
	comps := store.Components()
	seeds := make(map[relation.TupleID][]int)
	store.EachViolation(func(gi int, v cfd.Violation) {
		seeds[v.T] = appendUnique(seeds[v.T], gi)
	})
	e := newEngine(store, d, o)
	for _, comp := range comps {
		for _, id := range comp {
			for _, gi := range seeds[id] {
				e.dirty[gi][id] = true
			}
		}
		for {
			for {
				p, ok := e.pickNext()
				if !ok {
					break
				}
				if err := e.execute(p); err != nil {
					t.Fatal(err)
				}
				check(e)
			}
			if !e.instantiate() {
				break
			}
			check(e)
		}
		e.resetClasses()
		check(e)
	}
	return work
}

// checkMemo asks findV again about every cell the memo holds an answer
// for and requires what FINDV's body computes from the engine's state now.
// It returns how many of those answers findV could give without computing
// — the entries whose version and class size are still current.
func checkMemo(t *testing.T, e *engine) (current int) {
	t.Helper()
	type question struct {
		ix *relation.HashIndex
		b  int
	}
	groupOf := make(map[question]int)
	for gi := range e.support {
		for b, ix := range e.support[gi] {
			if ix != nil {
				groupOf[question{ix, b}] = gi
			}
		}
	}
	for _, fk := range slices.Collect(maps.Keys(e.found)) {
		if f := e.found[fk]; f.ver == e.rel.Version() && f.size == e.classes.Peek(fk.k) {
			current++
		}
		tp, b := e.cell(fk.k)
		v, vio, c, ok := e.findV(groupOf[question{fk.ix, b}], tp, b)
		wv, wvio, wc, wok := e.findVUncached(fk.ix, tp, b)
		if v != wv || vio != wvio || c != wc || ok != wok {
			t.Fatalf("findV(t%d, attr %d) at version %d, |eq| %d: kept (%q, %d, %v, %v), computed (%q, %d, %v, %v)",
				tp.ID, b, e.rel.Version(), e.classes.Peek(fk.k), v, vio, c, ok, wv, wvio, wc, wok)
		}
	}
	return current
}

// TestFindVMemoExact is the memo's differential test: on generated §7.1
// databases at the benchmark's settings and on random instances, the
// greedy loop is driven by hand and, after every step, every answer the
// memo would give is held to FINDV's body recomputed from scratch. The
// driven run must also repair exactly as Batch does, so the checks did not
// steer it.
func TestFindVMemoExact(t *testing.T) {
	current := 0
	run := func(t *testing.T, d *relation.Relation, sigma []*cfd.Normal) {
		got := driveBatch(t, d, sigma, func(e *engine) { current += checkMemo(t, e) })
		res, err := Batch(d, sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialize(t, got), serialize(t, res.Repair)) {
			t.Fatal("the driven loop repaired differently from Batch")
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("gen%d", seed), func(t *testing.T) {
			ds, err := gen.New(gen.Config{Size: 500, NoiseRate: 0.05, ConstShare: 0.5, PatternRows: 600, Weights: true, Seed: 29000 + seed})
			if err != nil {
				t.Fatal(err)
			}
			run(t, ds.Dirty, ds.Sigma)
		})
	}
	for seed := int64(1); seed <= 48; seed++ {
		t.Run(fmt.Sprintf("random%d", seed), func(t *testing.T) {
			d, sigma := randInstance(t, rand.New(rand.NewSource(seed)))
			run(t, d, sigma)
		})
	}
	if current == 0 {
		t.Fatal("no step left a memo answer current; the test exercises nothing")
	}
}

// TestFindVMemoClearedWithClasses: a class size means nothing across the
// reset between components. Here eq(t0, B) has two members before the
// reset and two others after it, at the same relation version (merges
// write nothing), and findV must cost the second class, not the first.
func TestFindVMemoClearedWithClasses(t *testing.T) {
	s := relation.MustSchema("r", "B", "C", "A")
	d := relation.New(s)
	for _, row := range [][]string{{"b0", "c", "a"}, {"b1", "c", "a"}, {"b1", "c", "a"}, {"zzzz", "c", "a"}} {
		d.MustInsert(relation.NewTuple(0, row...))
	}
	fd, err := cfd.FD("fd", s, []string{"B", "C"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	work := d.Clone()
	store := cfd.Compile(work.Dict(), fd.Normalize()).NewVioStore(work, 1)
	defer store.Close()
	e := newEngine(store, d, (*Options)(nil).withDefaults())
	ts := work.Tuples()
	t0, ix := ts[0], e.supportIndex(0, 0)
	if err := e.classes.Merge(e.key(t0, 0), e.key(ts[3], 0)); err != nil {
		t.Fatal(err)
	}
	_, _, before, _ := e.findV(0, t0, 0)
	e.resetClasses()
	if err := e.classes.Merge(e.key(t0, 0), e.key(ts[1], 0)); err != nil {
		t.Fatal(err)
	}
	v, vio, c, ok := e.findV(0, t0, 0)
	wv, wvio, wc, wok := e.findVUncached(ix, t0, 0)
	if wc == before {
		t.Fatalf("both classes cost %v; the fixture exercises nothing", wc)
	}
	if v != wv || vio != wvio || c != wc || ok != wok {
		t.Fatalf("findV after the reset: (%q, %d, %v, %v), want (%q, %d, %v, %v)", v, vio, c, ok, wv, wvio, wc, wok)
	}
}
