package cfd

import (
	"math/rand"
	"slices"
	"testing"

	"cfdclean/internal/relation"
)

// walkVioInGroup is vioInGroup as it stood before the LHS indices counted
// their buckets: the partners of t are found by walking t's bucket, one
// Relation.Tuple lookup per member. It is kept as the oracle the counted
// path is held against.
func walkVioInGroup(d *Detector, g *groupPlan, t *relation.Tuple) int {
	if t.HasNullOn(g.x) {
		return 0
	}
	var buf [8]relation.ValueID
	xids := d.xids(g.x, t, buf[:0])
	rows := g.matchingRows(xids, nil)
	total := 0
	av := t.Vals[g.a]
	partners := -1
	for _, r := range rows {
		if r.cons {
			if RHSViolates(av, r.tpa) {
				total++
			}
			continue
		}
		if av.Null {
			continue
		}
		if partners < 0 {
			partners = 0
			avID := t.IDAt(g.a)
			if !t.Interned() {
				avID = d.rel.Dict().LookupValue(av)
			}
			ids, _ := d.index(g).LookupIDs(xids)
			for _, id := range ids {
				if id == t.ID {
					continue
				}
				vid := d.rel.Tuple(id).IDAt(g.a)
				if vid != relation.NullID && vid != avID {
					partners++
				}
			}
		}
		total += partners
	}
	return total
}

// referenceScan visits every violation of D by walking every bucket of
// every variable-RHS group's LHS index and every tuple of every
// constant-only group: the whole-database scan the violation store
// replaced, which looks at clean buckets too and counts nothing from a
// tally. It is kept as the reference the store's maintained counts and
// listings are held to.
func referenceScan(d *Detector, visit func(t *relation.Tuple, n *Normal, with relation.TupleID)) {
	var ts []*relation.Tuple
	for _, g := range d.groups {
		if !g.hasVar {
			d.scanConstTuples(g, d.rel.Tuples(), visit)
			continue
		}
		d.index(g).Buckets(func(_ int32, ids []relation.TupleID, counts []relation.BucketCounts) {
			ts = d.scanBucket(g, ids, &counts[g.slot], ts, visit)
		})
	}
}

// referenceDetect returns a detector of its own over rel's current
// contents, and the violations referenceScan finds with it in the
// canonical (tuple id, rule rank, partner id) order.
func referenceDetect(rel *relation.Relation, sigma []*Normal) (*Detector, []Violation) {
	d := Compile(rel.Dict(), sigma).newDetector(rel)
	var out []Violation
	referenceScan(d, func(t *relation.Tuple, n *Normal, with relation.TupleID) {
		out = append(out, Violation{T: t.ID, N: n, With: with})
	})
	d.sortViolations(out)
	return d, out
}

// checkCountedIndexes holds every LHS index of d — one per distinct X,
// shared by the groups on it, one slot per group — to a from-scratch
// recount (Detector.Recount): every tally slot of every bucket against the
// bucket's members, the buckets against the relation. It holds Detector.VioCounts to Group.VioCount group by group,
// and both to the walk they replaced, for every stored tuple and for probes
// of the kinds TUPLERESOLVE sends: a stored tuple's id with another
// A-value, an X or A constant the dictionary has never seen, a null.
func checkCountedIndexes(t *testing.T, tag string, d *Detector, rng *rand.Rand) {
	t.Helper()
	rel := d.rel
	slots := 0
	for li := range d.lhs {
		lx := &d.lhs[li]
		if lx.ix == nil {
			t.Fatalf("%s: no index on %v; the caller builds them all", tag, lx.x)
		}
		for j, gi := range lx.groups {
			if g := d.groups[gi]; g.lhs != li || g.slot != j || g.a != lx.as[j] || !slices.Equal(g.x, lx.x) {
				t.Fatalf("%s: group %d (%v → %d, lhs %d slot %d) is not slot %d of the index on %v tallying %v", tag, gi, g.x, g.a, g.lhs, g.slot, j, lx.x, lx.as)
			}
		}
		slots += len(lx.groups)
	}
	if slots != len(d.groups) {
		t.Fatalf("%s: the indexes tally for %d groups of %d", tag, slots, len(d.groups))
	}
	if err := d.Recount(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}

	var counts []int
	compare := func(what string, p *relation.Tuple) {
		t.Helper()
		counts = d.VioCounts(p, counts)
		for gi, g := range d.Groups() {
			want := walkVioInGroup(d, g.g, p)
			if got := g.VioCount(p); got != want {
				t.Fatalf("%s: group %d: VioCount(%s %v) = %d, the bucket walk says %d", tag, gi, what, p, got, want)
			}
			if counts[gi] != want {
				t.Fatalf("%s: group %d: VioCounts(%s %v) = %d, the bucket walk says %d", tag, gi, what, p, counts[gi], want)
			}
		}
	}
	tuples := rel.Tuples()
	for _, tu := range tuples {
		compare("stored", tu)
	}
	if len(tuples) == 0 {
		return
	}
	dict := rel.Dict()
	for i := 0; i < 8; i++ {
		src := tuples[rng.Intn(len(tuples))]
		donor := tuples[rng.Intn(len(tuples))]
		// The stored tuple's id, one attribute taken from another tuple: on
		// a group's A this is the probe whose own stored copy sits in its
		// bucket with another value.
		p := src.Probe(dict)
		a := rng.Intn(len(p.Vals))
		p.SetAt(a, donor.At(a))
		compare("own id, foreign value", p)
		p.SetAt(a, dict.Resolve(relation.S("never-seen")))
		compare("own id, unseen value", p)
		p.SetAt(a, relation.NullIDValue)
		compare("own id, null", p)
		// The same under a fresh id, and free-standing (no ids at all).
		q := src.Probe(dict)
		q.ID = 0
		q.SetAt(a, donor.At(a))
		compare("fresh id", q)
		compare("free-standing", q.Clone())
		b := rng.Intn(len(p.Vals))
		q.SetAt(b, dict.Resolve(relation.S("never-seen")))
		compare("fresh id, unseen value", q)
		compare("free-standing, unseen value", q.Clone())
	}
}
