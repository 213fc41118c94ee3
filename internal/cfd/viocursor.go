package cfd

import (
	"slices"
	"sort"

	"cfdclean/internal/relation"
)

// VioFilter selects violations from a listing (see Match). Zero bounds
// are open; Rule "" matches every rule; Attr < 0 matches every attribute
// (use AnyVio for the match-everything filter — the zero value pins
// attribute 0, which is almost never what a caller wants).
type VioFilter struct {
	// Rule, when non-empty, keeps only violations of the normal CFD with
	// this name.
	Rule string
	// Attr, when >= 0, keeps only violations of rules whose embedded FD
	// mentions this attribute position (in X or as the RHS A).
	Attr int
	// MinID/MaxID, when non-zero, bound the violating tuple id T.
	MinID, MaxID relation.TupleID
}

// AnyVio returns the filter that matches every violation.
func AnyVio() VioFilter { return VioFilter{Attr: -1} }

// Match reports whether v passes the filter.
func (f VioFilter) Match(v Violation) bool {
	if f.MinID != 0 && v.T < f.MinID {
		return false
	}
	if f.MaxID != 0 && v.T > f.MaxID {
		return false
	}
	if f.Rule != "" && v.N.Name != f.Rule {
		return false
	}
	if f.Attr >= 0 && !containsAttr(v.N.X, f.Attr) && v.N.A != f.Attr {
		return false
	}
	return true
}

// VioCursor streams the maintained violations in the canonical (tuple
// id, rule rank, partner id) order — the exact sequence Detect returns —
// without materializing the full list. Opening it lists the violating
// tuples in id order (VioAll: one pass over the violations of the dirty
// buckets and tuples, O(dirty) memory); each tuple read then re-derives
// the dirty buckets it sits in and keeps its own violations, at
// O(members + violations) per such bucket. Groups with no violation are
// skipped.
//
// The cursor reads live maintained state: it must run under the same
// serialization as other VioStore queries (no concurrent mutation).
// Snapshot consumers (increpair.ReadView) drain it while still holding
// the writer's lock — cheap because streaming sessions keep vio(D) at
// zero between batches.
type VioCursor struct {
	s      *VioStore
	groups []int // indices of the groups holding violations
	ids    []relation.TupleID
	i      int
	cur    []Violation
	pos    int
	buf    []Violation
	sc     *scanScratch
}

// Cursor opens a cursor over every maintained violation. See VioCursor
// for the iteration contract.
func (s *VioStore) Cursor() *VioCursor {
	c := &VioCursor{s: s, sc: newScanScratch()}
	if s.total == 0 {
		return c
	}
	for gi := range s.d.groups {
		if s.state[gi].total != 0 {
			c.groups = append(c.groups, gi)
		}
	}
	for id := range s.VioAll() {
		c.ids = append(c.ids, id)
	}
	slices.Sort(c.ids)
	return c
}

// Next returns the next violation in canonical order; ok is false when
// the cursor is exhausted.
func (c *VioCursor) Next() (v Violation, ok bool) {
	for {
		if c.pos < len(c.cur) {
			v = c.cur[c.pos]
			c.pos++
			return v, true
		}
		if c.i >= len(c.ids) {
			return Violation{}, false
		}
		id := c.ids[c.i]
		c.i++
		c.cur = c.gather(id)
		c.pos = 0
	}
}

// gather collects tuple id's violations across the groups holding any,
// sorted by (rule rank, partner id) — the within-tuple leg of the
// canonical order. The backing buffer is reused across tuples.
func (c *VioCursor) gather(id relation.TupleID) []Violation {
	buf := c.buf[:0]
	d, t := c.s.d, c.s.rel.Tuple(id)
	keep := func(u *relation.Tuple, n *Normal, with relation.TupleID) {
		if u == t {
			buf = append(buf, Violation{T: id, N: n, With: with})
		}
	}
	for _, gi := range c.groups {
		g, st := d.groups[gi], &c.s.state[gi]
		if !g.hasVar {
			if st.tuples[id] != 0 {
				d.scanConstTuples(g, []*relation.Tuple{t}, keep)
			}
			continue
		}
		// Every violation of t in g lives in t's own LHS-key bucket.
		ix := d.index(g)
		b := ix.BucketOf(t.KeyOnIDs(g.x))
		if st.buckets[b] == 0 {
			continue
		}
		ids, counts := ix.BucketAt(b)
		d.scanBucket(g, ids, &counts[g.slot], c.sc, keep)
	}
	rank := d.prog.rank
	sort.Slice(buf, func(i, j int) bool {
		if ra, rb := rank[buf[i].N], rank[buf[j].N]; ra != rb {
			return ra < rb
		}
		return buf[i].With < buf[j].With
	})
	c.buf = buf
	return buf
}
