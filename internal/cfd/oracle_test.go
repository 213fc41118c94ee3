package cfd

import (
	"math/rand"
	"testing"

	"cfdclean/internal/relation"
)

// walkVioInGroup is vioInGroup as it stood before the LHS indices counted
// their buckets: the partners of t are found by walking t's bucket, one
// Relation.Tuple lookup per member. It is kept as the oracle the counted
// path is held against.
func walkVioInGroup(d *Detector, g *fdGroup, t *relation.Tuple) int {
	if t.HasNullOn(g.x) {
		return 0
	}
	var buf [8]relation.ValueID
	xids := d.xids(g, t, buf[:0])
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
			for _, id := range d.index(g).LookupIDs(xids) {
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

// checkCountedIndexes holds every live LHS index of d to a from-scratch
// recount — each bucket's tally against its members, the buckets against
// the relation — and Group.VioCount to the walk it replaced, for every
// stored tuple and for probes of the kinds TUPLERESOLVE sends: a stored
// tuple's id with another A-value, an X or A constant the dictionary has
// never seen, a null.
func checkCountedIndexes(t *testing.T, tag string, d *Detector, rng *rand.Rand) {
	t.Helper()
	rel := d.rel
	for gi, g := range d.groups {
		if g.xIndex == nil {
			t.Fatalf("%s: group %d has no index; the caller builds them all", tag, gi)
		}
		members := 0
		g.xIndex.Buckets(func(key relation.Key, ids []relation.TupleID, c *relation.BucketCounts) {
			members += len(ids)
			want := make(map[relation.ValueID]int)
			nonNull := 0
			for _, id := range ids {
				tu := rel.Tuple(id)
				if tu == nil {
					t.Fatalf("%s: group %d indexes the missing tuple %d", tag, gi, id)
				}
				if tu.KeyOnIDs(g.x) != key {
					t.Fatalf("%s: group %d files tuple %d under the wrong key", tag, gi, id)
				}
				if vid := tu.IDAt(g.a); vid != relation.NullID {
					want[vid]++
					nonNull++
				}
			}
			if c.NonNull() != nonNull || c.Distinct() != len(want) {
				t.Fatalf("%s: group %d bucket %v: tally says %d non-null, %d distinct; recount %d, %d",
					tag, gi, ids, c.NonNull(), c.Distinct(), nonNull, len(want))
			}
			for vid, n := range want {
				if c.Count(vid) != n {
					t.Fatalf("%s: group %d bucket %v: Count(%d) = %d, recount %d", tag, gi, ids, vid, c.Count(vid), n)
				}
			}
			if c.Count(relation.NullID) != 0 || c.Count(relation.InvalidID) != 0 {
				t.Fatalf("%s: group %d bucket %v counts members under NullID or InvalidID", tag, gi, ids)
			}
		})
		if members != rel.Size() {
			t.Fatalf("%s: group %d indexes %d tuples of %d", tag, gi, members, rel.Size())
		}
	}

	compare := func(what string, p *relation.Tuple) {
		t.Helper()
		for gi, g := range d.groups {
			if got, want := d.vioInGroup(g, p), walkVioInGroup(d, g, p); got != want {
				t.Fatalf("%s: group %d: VioCount(%s %v) = %d, the bucket walk says %d", tag, gi, what, p, got, want)
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
