package cfd

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"cfdclean/internal/relation"
)

// Violation records that tuple T violates the normal CFD N; for
// variable-RHS (case 2) violations, With is the partner tuple (§3.1).
type Violation struct {
	T    relation.TupleID
	N    *Normal
	With relation.TupleID // zero for single-tuple (case 1) violations
}

// groupPlan collects the normal CFDs sharing an embedded FD X → A. Grouping
// lets detection make one pass per embedded FD instead of one per pattern
// tuple — essential when tableaus carry hundreds of pattern rows (§7.1).
// A plan is a function of Σ and the dictionary its constants are interned
// in, and immutable once compiled: detectors share it (see Compiled).
type groupPlan struct {
	x      []int // sorted LHS attribute positions
	a      int   // RHS attribute position
	schema *relation.Schema

	// lhs is the plan of the one index on x (Compiled.lhs), shared with
	// every other group on the same x; slot is where that index tallies a.
	lhs, slot int

	// masks are those of the LHS's mask buckets (lhsPlan.masks) that hold
	// a row of this group, in the order its rows first used them: the order
	// MatchingRules lists rules in.
	masks []*maskBucket

	hasVar bool // any variable-RHS row in this group
}

// lhsPlan is one distinct LHS attribute set of Σ. The paper's normal form
// (§2) splits ϕ: X → A1,…,An into n embedded FDs, but the tuples agreeing
// on X are the same whichever Ai is asked about: there is one index per X,
// tallying every Ai, and one bucket lookup per X answers for all of them.
type lhsPlan struct {
	x      []int // sorted attribute positions
	as     []int // the RHS attribute of every group on x; as[j] is tallied in slot j
	groups []int // groups[j] is the group x → as[j] (index into Compiled.plans)

	// masks groups the pattern rows of every group on x by which positions
	// of x carry constants; each mask bucket maps the interned constants at
	// those positions to rows through a relation.KeyMap (one 64-bit word for
	// up to two constants). A probe or a bucket is matched once per mask,
	// for all the groups on x at once.
	masks []*maskBucket
}

// lhsIndex is one detector's live index of D on an lhsPlan's x, built
// lazily via Detector.index (once makes the build safe under concurrent
// read-only probes).
type lhsIndex struct {
	*lhsPlan
	once sync.Once
	ix   *relation.HashIndex
}

type maskBucket struct {
	pos []int // positions within x that are constants for these rows
	// rows numbers the constants at pos (a one-word key for up to two);
	// heads[rows.Get(ids)] is the first row carrying them, and rows sharing
	// them are chained through next, in sigma order. wild is the one chain
	// of the all-wildcard mask (no pos), which needs no lookup.
	rows  relation.KeyMap
	heads []*groupRow
	wild  *groupRow
}

// groupRow is one normal CFD as a pattern row of its group.
type groupRow struct {
	n    *Normal
	slot int // of the row's group on its LHS
	tpa  Cell
	cons bool // constant RHS
	// tpaID is the interned id of the constant RHS (cons rows only).
	tpaID relation.ValueID
	// next is the following row with the same mask key; the chain's head
	// keeps its tail in last.
	next, last *groupRow
}

// Detector is the per-tuple half of CFD violation detection over a
// relation: the compiled Σ, one lazily built hash index per distinct LHS,
// and the probes that answer vio(t) for one tuple (VioTuple, VioCounts,
// Group) in a bucket lookup per LHS. It implements the SQL-based detection
// technique of [6] over the interned in-memory substrate: every index
// probe and pattern match looks up a projection's interned ids in a
// relation.KeyMap — one 64-bit word on one or two attributes — never
// strings. A Detector exists only inside the VioStore that keeps its
// indexes up to date; the store is the one whole-database detector, and
// every detection runs on the caller's goroutine.
type Detector struct {
	rel    *relation.Relation
	prog   *Compiled
	groups []*groupPlan // prog.plans
	lhs    []lhsIndex   // parallel to prog.lhs
}

// Compiled is Σ compiled against a dictionary: the embedded-FD groups with
// their pattern rows keyed by interned constants, and the canonical rule
// order. It is immutable, so any number of detectors over relations
// sharing the dictionary can share one compilation instead of re-deriving
// it from hundreds of pattern rows each.
type Compiled struct {
	sigma []*Normal
	plans []*groupPlan
	lhs   []*lhsPlan

	// rank orders normal CFDs by their position in sigma; it canonicalizes
	// the violation sort, so a listing does not depend on the order in
	// which the store visits its dirty buckets. The first sort builds it
	// (ranks).
	rankOnce sync.Once
	rank     map[*Normal]int
}

// ranks returns the rank of every rule of Σ, building it on first use.
func (c *Compiled) ranks() map[*Normal]int {
	c.rankOnce.Do(func() {
		c.rank = make(map[*Normal]int, len(c.sigma))
		for i, n := range c.sigma {
			c.rank[n] = i
		}
	})
	return c.rank
}

// rowShape is what the rows of one shape (sameShape) have in common: the
// group they are filed under, the order that sorts their X, the positions
// of their constants in that order, and the mask bucket those name.
type rowShape struct {
	n    *Normal // the shape's first row
	rows int     // how many rows of sigma have the shape
	gi   int
	perm []int
	pos  []int
	mb   *maskBucket
}

// Compile groups sigma by embedded FD and interns its pattern constants
// into dict. This is the only step of detection that interns; scans and
// probes never do.
//
// Normalize lists a CFD's rows attribute by attribute (A1, A2, …, A1, A2,
// …), so rows of one shape — X in its given order, A, and the wildcard
// positions — seldom sit side by side, yet a Σ has few shapes (§7.1's
// 1 275 rows have 18). Compile works a shape out once: the first pass
// files each row under its shape, the second builds each shape's group,
// LHS plan and mask bucket in order of first appearance — the order in
// which a row-by-row pass would create them — and the third fills the rows
// in sigma order, interning in that order, so every plan, chain and
// dictionary id is the one a row-by-row pass gives.
func Compile(dict *relation.Dict, sigma []*Normal) *Compiled {
	c := &Compiled{sigma: sigma}
	var shapes []rowShape
	shapeOf := make([]int, len(sigma))
	for i, n := range sigma {
		s := len(shapes) - 1
		if s < 0 || !sameShape(shapes[s].n, n) {
			s = slices.IndexFunc(shapes, func(sh rowShape) bool { return sameShape(sh.n, n) })
			if s < 0 {
				s = len(shapes)
				shapes = append(shapes, rowShape{n: n})
			}
		}
		shapes[s].rows++
		shapeOf[i] = s
	}
	for s := range shapes {
		sh := &shapes[s]
		n := sh.n
		sh.perm = sortedPerm(n.X)
		x := make([]int, len(n.X))
		for k, p := range sh.perm {
			x[k] = n.X[p]
			if !n.TpX[p].Wildcard {
				sh.pos = append(sh.pos, k) // in the group's x-order
			}
		}
		sh.gi = slices.IndexFunc(c.plans, func(g *groupPlan) bool { return g.a == n.A && slices.Equal(g.x, x) })
		if sh.gi < 0 {
			sh.gi = len(c.plans)
			li := slices.IndexFunc(c.lhs, func(lx *lhsPlan) bool { return slices.Equal(lx.x, x) })
			if li < 0 {
				li = len(c.lhs)
				c.lhs = append(c.lhs, &lhsPlan{x: x})
			}
			lx := c.lhs[li]
			c.plans = append(c.plans, &groupPlan{x: lx.x, a: n.A, schema: n.Schema, lhs: li, slot: len(lx.as)})
			lx.as = append(lx.as, n.A)
			lx.groups = append(lx.groups, sh.gi)
		}
		g := c.plans[sh.gi]
		sh.mb = c.lhs[g.lhs].mask(sh.pos, sh.rows)
		if !slices.Contains(g.masks, sh.mb) {
			g.masks = append(g.masks, sh.mb)
		}
	}
	slab := make([]groupRow, len(sigma))
	for i, n := range sigma {
		sh := &shapes[shapeOf[i]]
		g := c.plans[sh.gi]
		row := &slab[i]
		*row = groupRow{n: n, slot: g.slot, tpa: n.TpA, cons: n.ConstantRHS()}
		if row.cons {
			row.tpaID = dict.InternStr(n.TpA.Const)
		} else {
			g.hasVar = true
		}
		var buf [8]relation.ValueID
		ids := buf[:0]
		for _, k := range sh.pos {
			ids = append(ids, dict.InternStr(n.TpX[sh.perm[k]].Const))
		}
		sh.mb.add(ids, row)
	}
	return c
}

// sameShape reports whether two normal CFDs list the same X in the same
// order, share A, and carry their LHS constants at the same positions.
func sameShape(a, b *Normal) bool {
	if a.A != b.A || !slices.Equal(a.X, b.X) {
		return false
	}
	for i := range a.TpX {
		if a.TpX[i].Wildcard != b.TpX[i].Wildcard {
			return false
		}
	}
	return true
}

// mask returns lx's bucket for rows with constants at pos, creating it —
// sized for the n rows of the shape asking — when it is the first such
// shape.
func (lx *lhsPlan) mask(pos []int, n int) *maskBucket {
	for _, mb := range lx.masks {
		if slices.Equal(mb.pos, pos) {
			return mb
		}
	}
	mb := &maskBucket{pos: pos, rows: relation.NewKeyMap(len(pos), n)}
	lx.masks = append(lx.masks, mb)
	return mb
}

func (mb *maskBucket) add(ids []relation.ValueID, r *groupRow) {
	r.last = r
	if i, ok := mb.rows.Get(ids); ok {
		head := mb.heads[i]
		head.last.next = r
		head.last = r
		return
	}
	mb.rows.Put(ids, int32(len(mb.heads)))
	mb.heads = append(mb.heads, r)
	if len(mb.pos) == 0 {
		mb.wild = r
	}
}

// newDetector returns a detector for the compiled Σ over rel, indexing
// rel's current contents on demand. rel's dictionary must be the one c
// was compiled against or a clone of it made afterwards (clones preserve
// ids), so that the compiled constants mean the same values. Only a
// VioStore calls it: nothing else would keep the indexes up to date.
func (c *Compiled) newDetector(rel *relation.Relation) *Detector {
	d := &Detector{
		rel:    rel,
		prog:   c,
		groups: c.plans,
		lhs:    make([]lhsIndex, len(c.lhs)),
	}
	for i, p := range c.lhs {
		d.lhs[i].lhsPlan = p
	}
	return d
}

// index returns the live index on g's LHS — the one every group on that
// LHS shares, tallying the RHS attribute of each — building it on first
// use. Groups with only constant-RHS rows never need bucket partitioning
// to be counted (each tuple is checked against the pattern constants
// alone), so the store builds no index for an LHS that carries only such
// groups. Laziness is sound under mutation too: an unbuilt index needs no
// maintenance — the eventual build reads the relation's current state.
func (d *Detector) index(g *groupPlan) *relation.HashIndex {
	lx := &d.lhs[g.lhs]
	lx.once.Do(func() {
		lx.ix = relation.NewCountedHashIndex(d.rel, lx.x, lx.as...)
	})
	return lx.ix
}

// Recount holds every built LHS index to a count from scratch: it must file
// each tuple of the relation once, under the tuple's own key, list every
// bucket's members in ascending id order, and every tally slot of every
// bucket — each value's count and the sum of their squares — must equal a
// count over the bucket's members.
// It returns the first disagreement. (An index never asked for is not
// built, and has nothing to hold.)
func (d *Detector) Recount() error {
	for li := range d.lhs {
		lx := &d.lhs[li]
		if lx.ix == nil {
			continue
		}
		var err error
		members := 0
		lx.ix.Buckets(func(b int32, ids []relation.TupleID, counts []relation.BucketCounts) {
			members += len(ids)
			if err == nil {
				err = d.recountBucket(lx, b, ids, counts)
			}
		})
		if err != nil {
			return err
		}
		if members != d.rel.Size() {
			return fmt.Errorf("cfd: index on %v holds %d tuples of %d", lx.x, members, d.rel.Size())
		}
	}
	return nil
}

// recountBucket is Recount for bucket b of lx.
func (d *Detector) recountBucket(lx *lhsIndex, b int32, ids []relation.TupleID, counts []relation.BucketCounts) error {
	if len(counts) != len(lx.as) {
		return fmt.Errorf("cfd: index on %v: bucket %v has %d tallies for %d groups", lx.x, ids, len(counts), len(lx.as))
	}
	if !slices.IsSorted(ids) {
		return fmt.Errorf("cfd: index on %v lists bucket %v out of id order", lx.x, ids)
	}
	for _, id := range ids {
		t := d.rel.Tuple(id)
		if t == nil {
			return fmt.Errorf("cfd: index on %v holds the missing tuple %d", lx.x, id)
		}
		if lx.ix.BucketOf(t) != b {
			return fmt.Errorf("cfd: index on %v files tuple %d under the wrong key", lx.x, id)
		}
	}
	for j, a := range lx.as {
		c := &counts[j]
		want := make(map[relation.ValueID]int)
		nonNull := 0
		for _, id := range ids {
			if vid := d.rel.Tuple(id).IDAt(a); vid != relation.NullID {
				want[vid]++
				nonNull++
			}
		}
		if c.NonNull() != nonNull || c.Distinct() != len(want) {
			return fmt.Errorf("cfd: index on %v bucket %v: the tally of %d says %d non-null, %d distinct; recount %d, %d",
				lx.x, ids, a, c.NonNull(), c.Distinct(), nonNull, len(want))
		}
		sq := 0
		for vid, n := range want {
			if c.Count(vid) != n {
				return fmt.Errorf("cfd: index on %v bucket %v: tally of %d: Count(%d) = %d, recount %d", lx.x, ids, a, vid, c.Count(vid), n)
			}
			sq += n * n
		}
		if c.SumSquares() != sq {
			return fmt.Errorf("cfd: index on %v bucket %v: tally of %d: SumSquares = %d, recount %d", lx.x, ids, a, c.SumSquares(), sq)
		}
		if c.Count(relation.NullID) != 0 || c.Count(relation.InvalidID) != 0 {
			return fmt.Errorf("cfd: index on %v bucket %v counts members under NullID or InvalidID", lx.x, ids)
		}
	}
	return nil
}

func sortedPerm(xs []int) []int {
	perm := make([]int, len(xs))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return xs[perm[i]] < xs[perm[j]] })
	return perm
}

// matchRows returns the pattern rows in masks whose tp[X] is matched by the
// given X ids (already known to be null-free). An InvalidID component —
// a probe value absent from the dictionary — can match constants of no
// row, but still matches all-wildcard positions. The rows are appended to
// out: callers on a hot path pass a small stack buffer, so the common
// handful of matching rows costs no allocation.
func matchRows(masks []*maskBucket, xids []relation.ValueID, out []*groupRow) []*groupRow {
	for _, mb := range masks {
		r := mb.wild
		if len(mb.pos) > 0 {
			var buf [8]relation.ValueID
			sel := buf[:0]
			for _, p := range mb.pos {
				if xids[p] == relation.InvalidID {
					break
				}
				sel = append(sel, xids[p])
			}
			if len(sel) < len(mb.pos) {
				continue
			}
			i, ok := mb.rows.Get(sel)
			if !ok {
				continue
			}
			r = mb.heads[i]
		}
		for ; r != nil; r = r.next {
			out = append(out, r)
		}
	}
	return out
}

// matchingRows is matchRows over g's own rows, in the order of g.masks.
// (Over lx.masks it matches for every group on the LHS at once; a caller
// then asking about one group skips the rows of the other slots.)
func (g *groupPlan) matchingRows(xids []relation.ValueID, out []*groupRow) []*groupRow {
	n := len(out)
	out = matchRows(g.masks, xids, out)
	kept := out[:n]
	for _, r := range out[n:] {
		if r.slot == g.slot {
			kept = append(kept, r)
		}
	}
	return kept
}

// xids projects t onto x as interned ids: directly for tuples that
// carry them (relation-owned ones and relation.Tuple.Probe copies), through
// a read-only dictionary lookup for free-standing tuples handed to the
// query API (novel constants become InvalidID — they match only wildcards
// and agree with no stored tuple).
func (d *Detector) xids(x []int, t *relation.Tuple, buf []relation.ValueID) []relation.ValueID {
	if t.Interned() {
		return t.ProjectIDs(buf, x)
	}
	dict := d.rel.Dict()
	for _, a := range x {
		buf = append(buf, dict.LookupValue(t.Vals[a]))
	}
	return buf
}

// xProbe is a tuple's projection onto one LHS, as every group on that LHS
// sees it: the ids, the pattern rows of all those groups that they match
// and, once some group has needed them, the tallies of the bucket they name
// (nil when no stored tuple carries them).
type xProbe struct {
	xids   []relation.ValueID
	rows   []*groupRow
	counts []relation.BucketCounts
	looked bool
}

// Sigma returns the normal CFDs under detection.
func (d *Detector) Sigma() []*Normal { return d.prog.sigma }

// VioTuple returns vio(t): the number of violations incurred by t (§3.1).
// Case 1 adds one per violated constant-RHS CFD; case 2 adds one per
// (CFD, partner-tuple) pair.
func (d *Detector) VioTuple(t *relation.Tuple) int {
	var buf [16]int
	total := 0
	for _, n := range d.VioCounts(t, buf[:0]) {
		total += n
	}
	return total
}

// VioCounts returns vio(t) group by group (in Groups order), in out[:0]:
// what Group.VioCount answers for each, with t projected onto every
// distinct LHS once and that LHS's bucket looked up at most once, for all
// the groups on it. A caller that asks repeatedly passes one buffer and,
// for a t that carries ids, allocates nothing.
func (d *Detector) VioCounts(t *relation.Tuple, out []int) []int {
	out = slices.Grow(out[:0], len(d.groups))[:len(d.groups)]
	clear(out)
	var buf [8]relation.ValueID
	var rbuf [16]*groupRow
	for li := range d.lhs {
		lx := &d.lhs[li]
		if t.HasNullOn(lx.x) {
			continue // null never matches a pattern (§3.1 remark 2)
		}
		xids := d.xids(lx.x, t, buf[:0])
		p := xProbe{xids: xids, rows: matchRows(lx.masks, xids, rbuf[:0])}
		for _, gi := range lx.groups {
			out[gi] = d.vioInGroup(d.groups[gi], t, &p)
		}
	}
	return out
}

// vioInGroup counts t's violations within g; p is t's null-free projection
// onto g's LHS.
func (d *Detector) vioInGroup(g *groupPlan, t *relation.Tuple, p *xProbe) int {
	total := 0
	av := t.Vals[g.a]
	// partners is the number of bucket tuples disagreeing with t on A; it
	// is the same for every variable-RHS row of the group.
	partners := -1
	for _, r := range p.rows {
		if r.slot != g.slot {
			continue
		}
		if r.cons {
			if RHSViolates(av, r.tpa) {
				total++
			}
			continue
		}
		// Variable RHS: count partners with a different non-null A.
		if av.Null {
			continue // null A is Eq to everything: already resolved (§4.1 case 2.3)
		}
		if partners < 0 {
			partners = d.disagreeing(g, t, p)
		}
		total += partners
	}
	return total
}

// aID returns the interned id of t's A-value in group g; InvalidID for a
// constant the dictionary has never seen.
func (d *Detector) aID(g *groupPlan, t *relation.Tuple) relation.ValueID {
	if t.Interned() {
		return t.IDAt(g.a)
	}
	return d.rel.Dict().LookupValue(t.Vals[g.a])
}

// disagreeing returns the number of stored tuples other than t that agree
// with t on g.x (given as p) and carry a non-null A-value different from
// t's, which must not be null. The bucket's tally of A answers in O(1): the
// members with any non-null A less those with t's. A value the dictionary
// has never seen (InvalidID) is carried by no member, so all of them
// disagree. What the tally cannot know is whether t's own stored copy —
// a tuple with t's id, when t is a modified copy of it — is among those
// counted; that is one more lookup, made only when something disagrees.
func (d *Detector) disagreeing(g *groupPlan, t *relation.Tuple, p *xProbe) int {
	if !p.looked {
		_, p.counts = d.index(g).LookupIDs(p.xids)
		p.looked = true
	}
	if p.counts == nil {
		return 0
	}
	c := &p.counts[g.slot]
	avID := d.aID(g, t)
	n := c.NonNull() - c.Count(avID)
	if n == 0 {
		return 0
	}
	if own := d.rel.Tuple(t.ID); own != nil {
		var buf [8]relation.ValueID
		if vid := own.IDAt(g.a); vid != relation.NullID && vid != avID && slices.Equal(own.ProjectIDs(buf[:0], g.x), p.xids) {
			n--
		}
	}
	return n
}

func (d *Detector) sortViolations(vs []Violation) {
	rank := d.prog.ranks()
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if ra, rb := rank[a.N], rank[b.N]; ra != rb {
			return ra < rb
		}
		return a.With < b.With
	})
}

// open reports whether some member of a bucket with tally c violates row
// r: a constant row as soon as one non-null A-value is not its constant, a
// variable row as soon as two members disagree.
func (r *groupRow) open(c *relation.BucketCounts) bool {
	if r.cons {
		return c.NonNull() != c.Count(r.tpaID)
	}
	return c.Distinct() > 1
}

// bucketVios counts the violations of g within a bucket whose members
// match rows (its bucketRows) and whose tally of g.a is c, as scanBucket
// would visit them, without touching a member: an open constant row is
// violated once by each member with another non-null A-value, and a
// variable row once per ordered pair of members whose non-null A-values
// differ.
func (g *groupPlan) bucketVios(rows []*groupRow, c *relation.BucketCounts) int {
	n := 0
	for _, r := range rows {
		switch {
		case r.slot != g.slot:
		case r.cons:
			n += c.NonNull() - c.Count(r.tpaID)
		default:
			n += c.NonNull()*c.NonNull() - c.SumSquares()
		}
	}
	return n
}

// bucketRows returns the pattern rows, of every group on lx, that the
// members of the bucket keyed xids match: none when the key holds a null.
func (lx *lhsPlan) bucketRows(xids []relation.ValueID, out []*groupRow) []*groupRow {
	if slices.Contains(xids, relation.NullID) {
		return out
	}
	return matchRows(lx.masks, xids, out)
}

// scanBucket visits every violation within one LHS-key bucket of group g:
// ids are its members, c its tally of g.a, and the pattern rows its key
// matches are read off the first member. The tally alone says whether any
// matching row can be violated, and in a clean bucket — nearly every bucket
// of a database under repair — none can, so the scan ends after the pattern
// match without having touched another tuple. Otherwise all comparisons run
// on interned ids (bucket tuples are relation-owned), the tally serves as
// the RHS-value histogram, and the partner labels, shared by every
// variable-RHS row of the group, are computed once, in O(bucket). The
// members are looked up into ts[:0], which is returned for the caller to
// pass to the next bucket.
func (d *Detector) scanBucket(g *groupPlan, ids []relation.TupleID, c *relation.BucketCounts, ts []*relation.Tuple, visit func(t *relation.Tuple, n *Normal, with relation.TupleID)) []*relation.Tuple {
	if len(ids) == 0 {
		return ts
	}
	var buf [8]relation.ValueID
	var rbuf [16]*groupRow
	rows := d.prog.lhs[g.lhs].bucketRows(d.rel.Tuple(ids[0]).ProjectIDs(buf[:0], g.x), rbuf[:0])
	if !slices.ContainsFunc(rows, func(r *groupRow) bool { return r.slot == g.slot && r.open(c) }) {
		return ts
	}
	a := g.a
	ts = ts[:0]
	for _, id := range ids {
		ts = append(ts, d.rel.Tuple(id))
	}
	// Lazily prepared state for variable-RHS rows.
	prepared := false
	nonNull := c.NonNull()
	// Partner labels: s1 is the smallest tuple id with a non-null A value
	// v1; s2 the smallest id whose A value differs from v1. Every tuple's
	// canonical partner is s1 (if they disagree with v1) or s2 (if they
	// carry v1), independent of bucket order.
	var s1, s2 relation.TupleID
	var v1 relation.ValueID
	for _, r := range rows {
		if r.slot != g.slot || !r.open(c) {
			continue
		}
		if r.cons {
			for _, t := range ts {
				vid := t.IDAt(a)
				if vid != relation.NullID && vid != r.tpaID {
					visit(t, r.n, 0)
				}
			}
			continue
		}
		if !prepared {
			prepared = true
			for _, t := range ts {
				vid := t.IDAt(a)
				if vid != relation.NullID && (s1 == 0 || t.ID < s1) {
					s1, v1 = t.ID, vid
				}
			}
			for _, t := range ts {
				vid := t.IDAt(a)
				if vid == relation.NullID || vid == v1 {
					continue
				}
				if s2 == 0 || t.ID < s2 {
					s2 = t.ID
				}
			}
		}
		for _, t := range ts {
			vid := t.IDAt(a)
			if vid == relation.NullID {
				continue
			}
			diff := nonNull - c.Count(vid)
			if diff == 0 {
				continue
			}
			partner := s1
			if vid == v1 {
				partner = s2
			}
			for k := 0; k < diff; k++ {
				visit(t, r.n, partner)
			}
		}
	}
	return ts
}

// scanConstTuples visits the violations of a constant-RHS-only group over
// a slice of tuples directly — no bucket partitioning (and hence no LHS
// index) is needed, since constant-RHS violations are per-tuple (§3.1
// case 1).
func (d *Detector) scanConstTuples(g *groupPlan, tuples []*relation.Tuple, visit func(t *relation.Tuple, n *Normal, with relation.TupleID)) {
	a := g.a
	var rbuf [8]*groupRow
	for _, t := range tuples {
		if t.HasNullOn(g.x) {
			continue
		}
		var buf [8]relation.ValueID
		rows := g.matchingRows(t.ProjectIDs(buf[:0], g.x), rbuf[:0])
		if len(rows) == 0 {
			continue
		}
		vid := t.IDAt(a)
		if vid == relation.NullID {
			continue
		}
		for _, r := range rows {
			if vid != r.tpaID {
				visit(t, r.n, 0)
			}
		}
	}
}

// Group is a public handle on one embedded-FD group of the detector:
// all normal CFDs sharing LHS attributes X and RHS attribute A, together
// with the detector's live index on X (one per X, shared by the groups on
// it). The repair algorithms track dirty tuples per group instead of per
// pattern row, which keeps bookkeeping proportional to the number of
// embedded FDs rather than the (often thousands of) pattern tuples (§7.1).
type Group struct {
	d *Detector
	g *groupPlan
}

// Groups returns the embedded-FD groups of the detector, in construction
// order.
func (d *Detector) Groups() []Group {
	out := make([]Group, len(d.groups))
	for i, g := range d.groups {
		out[i] = Group{d: d, g: g}
	}
	return out
}

// X returns the group's LHS attribute positions (sorted).
func (g Group) X() []int { return g.g.x }

// A returns the group's RHS attribute position.
func (g Group) A() int { return g.g.a }

// Rep returns a representative normal CFD of the group: same X and A as
// every rule in the group, with an all-wildcard pattern. Useful for
// building attribute-level structures (e.g. dependency graphs) at group
// granularity.
func (g Group) Rep() *Normal {
	cells := make([]Cell, len(g.g.x))
	for i := range cells {
		cells[i] = W
	}
	return &Normal{
		Name:   "group",
		Schema: g.g.schema,
		X:      append([]int(nil), g.g.x...),
		A:      g.g.a,
		TpX:    cells,
		TpA:    W,
	}
}

// MatchingRules returns the normal CFDs of the group whose LHS pattern is
// matched by t (nil if t has a null among X). Cheap: one integer-key hash
// lookup per constant mask in the group.
func (g Group) MatchingRules(t *relation.Tuple) []*Normal {
	if t.HasNullOn(g.g.x) {
		return nil
	}
	var buf [8]relation.ValueID
	var rbuf [8]*groupRow
	rows := g.g.matchingRows(g.d.xids(g.g.x, t, buf[:0]), rbuf[:0])
	if len(rows) == 0 {
		return nil
	}
	out := make([]*Normal, len(rows))
	for i, r := range rows {
		out[i] = r.n
	}
	return out
}

// Bucket returns the ids of tuples agreeing with t on the group's X (via
// the live index), in ascending id order and t itself included, with the
// bucket's tally of A; nil, nil when no stored tuple agrees.
func (g Group) Bucket(t *relation.Tuple) ([]relation.TupleID, *relation.BucketCounts) {
	var buf [8]relation.ValueID
	ids, counts := g.d.index(g.g).LookupIDs(g.d.xids(g.g.x, t, buf[:0]))
	if ids == nil {
		return nil, nil
	}
	return ids, &counts[g.g.slot]
}

// VioCount returns vio(t) restricted to this group — the group's
// contribution to the paper's vio(t) (§3.1). It is the fast path behind
// TUPLERESOLVE's candidate probing: one pattern match, one index probe and
// one read of the bucket's tally, shared by every variable-RHS rule of the
// group — O(1) whatever the bucket holds, with no rule slice materialized
// and, for a t that carries ids, no dictionary access and no allocation.
// Detector.VioCounts answers for every group at once, with one probe per
// distinct X.
func (g Group) VioCount(t *relation.Tuple) int {
	if t.HasNullOn(g.g.x) {
		return 0 // null never matches a pattern (§3.1 remark 2)
	}
	var buf [8]relation.ValueID
	var rbuf [8]*groupRow
	xids := g.d.xids(g.g.x, t, buf[:0])
	p := xProbe{xids: xids, rows: g.g.matchingRows(xids, rbuf[:0])}
	return g.d.vioInGroup(g.g, t, &p)
}
