package increpair

import (
	"sort"
	"sync"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cluster"
	"cfdclean/internal/cost"
	"cfdclean/internal/relation"
)

// tupleResolve implements procedure TUPLERESOLVE (Fig. 7): greedily cover
// attr(R) with sets C of at most k attributes, choosing for each C the
// value tuple v̂ — drawn from adom(Repr) ∪ {null} — that keeps
// Repr ∪ {t[C/v̂]} consistent on the CFDs entirely within the fixed
// attributes and minimizes costfix.
//
// Two optimizations preserve the greedy's choices while skipping dead
// work. First, if the current tuple violates nothing, every remaining
// attribute is fixable at zero cost at once (the paper's greedy would
// pick those zero-cost sets first anyway). Second, attributes involved in
// no violated rule are likewise fixed unchanged before subsets of the
// contested attributes are enumerated — exactly the behaviour the paper
// describes in Example 5.1, where every attribute outside the violated
// CFDs is fixed without change first.
func (e *engine) tupleResolve(t *relation.Tuple) *relation.Tuple {
	clear(e.nearCache)
	// rt carries ids (unseen constants as InvalidID) and is only changed
	// through SetAt, so every probe below runs on integers.
	rt := t.Probe(e.repr.Dict())
	if e.repr.Tuple(rt.ID) != nil {
		rt.ID = 0 // let Insert assign a fresh id later
	}
	var fixed uint64
	full := uint64(1)<<uint(e.arity) - 1
	for fixed != full {
		violated := e.violatedMasks(rt)
		if len(violated) == 0 {
			// Consistent as-is: every remaining attribute is fixable
			// unchanged at zero cost (the greedy's first choices anyway).
			fixed = full
			break
		}
		// The closure of the violated rules' attributes over shared
		// embedded-FD groups: attributes outside it can never help (or
		// hurt) the open violations, because their groups are disjoint
		// from the contested ones — fix them unchanged at zero cost.
		// Attributes inside the closure stay open; Example 5.1 needs the
		// un-violated zip available when k = 3 reaches {CT, ST, zip}.
		contested := e.closure(violated) &^ fixed
		if contested == 0 {
			// All contested attributes are already fixed, yet a rule is
			// violated — impossible while the fixing invariant holds;
			// stop rather than loop (defensive).
			fixed = full
			break
		}
		if free := full &^ fixed &^ contested; free != 0 {
			fixed |= free
		}
		// Enumerate C ∈ [contested]^k and candidate values.
		attrs := bitsOf(contested)
		k := e.opts.K
		if k > len(attrs) {
			k = len(attrs)
		}
		best := e.bestFix(rt, fixed, attrs, k, violated)
		for i, a := range best.attrs {
			rt.SetAt(a, best.vals[i])
			fixed |= 1 << uint(a)
		}
	}
	return rt
}

// violatedMasks returns the attribute masks of the embedded-FD groups
// with at least one rule currently violated by rt against Repr.
func (e *engine) violatedMasks(rt *relation.Tuple) []uint64 {
	var out []uint64
	for _, gi := range e.groups {
		if e.groupViolations(gi.g, rt) > 0 {
			out = append(out, gi.mask)
		}
	}
	return out
}

// closure expands the union of the violated masks until no group
// straddles the boundary: the connected component of the contested
// attributes in the "shares a CFD" graph.
func (e *engine) closure(violated []uint64) uint64 {
	var m uint64
	for _, v := range violated {
		m |= v
	}
	for {
		grew := false
		for _, gi := range e.groups {
			if gi.mask&m != 0 && gi.mask&^m != 0 {
				m |= gi.mask
				grew = true
			}
		}
		if !grew {
			return m
		}
	}
}

// groupViolations counts the violations of rt against Repr within one
// embedded-FD group (the vio(t) contribution of the group, §3.1). The
// counting lives in the detector (Group.VioCount), which compares
// interned ids and scans the LHS bucket once per call — this is the
// innermost loop of TUPLERESOLVE's candidate enumeration.
func (e *engine) groupViolations(g cfd.Group, rt *relation.Tuple) int {
	return g.VioCount(rt)
}

// vio returns vio(rt) against Repr over all of Σ.
func (e *engine) vio(rt *relation.Tuple) int {
	total := 0
	for _, gi := range e.groups {
		total += e.groupViolations(gi.g, rt)
	}
	return total
}

// consistentOn reports whether Repr ∪ {rt} satisfies every rule whose
// attributes lie entirely within the given attribute mask — the paper's
// Σ(C ∪ C̄) check (Fig. 7 line 5), accelerated by the detector's LHS
// indices.
func (e *engine) consistentOn(rt *relation.Tuple, mask uint64) bool {
	for _, gi := range e.groups {
		if gi.mask&mask != gi.mask {
			continue
		}
		if e.groupViolations(gi.g, rt) > 0 {
			return false
		}
	}
	return true
}

// fix is a candidate assignment to a set of attributes with its ranking.
type fix struct {
	attrs []int
	vals  []relation.IDValue
	// costfix ranking (Fig. 7 line 6): primary cost·vio, then cost, then
	// vio — the tie-breakers resolve the paper's many 0·0 products in
	// favor of unchanged and cheap candidates. contested breaks the
	// remaining ties toward attribute sets touching fewer violated
	// rules, so consistent attributes are pinned first and the violated
	// ones are decided last with the most context (Example 5.1).
	primary   float64
	cost      float64
	vio       int
	contested int
	valid     bool
}

func (f fix) better(g fix) bool {
	if !g.valid {
		return true
	}
	if f.primary != g.primary {
		return f.primary < g.primary
	}
	if f.cost != g.cost {
		return f.cost < g.cost
	}
	if f.vio != g.vio {
		return f.vio < g.vio
	}
	return f.contested < g.contested
}

// bestFix evaluates every C ∈ [attrs]^k with every candidate value
// combination and returns the best valid fix. At least one valid fix
// always exists: the all-null assignment matches no pattern and conflicts
// with nothing (Example 5.1's (null, null)).
//
// The attribute subsets are independent of one another, so their
// evaluation fans out across the engine's worker pool, each worker
// mutating its own clone of rt. Candidate values depend only on rt's
// current (unmutated) state and are computed once up front — this also
// keeps the nearest-neighbour cache single-threaded. The merge picks the
// fix the sequential left-to-right scan would have kept: the lowest
// subset index attaining the minimal costfix ranking.
func (e *engine) bestFix(rt *relation.Tuple, fixed uint64, attrs []int, k int, violated []uint64) fix {
	var subsets [][]int
	subset := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			subsets = append(subsets, append([]int(nil), subset...))
			return
		}
		for i := start; i < len(attrs); i++ {
			subset[depth] = attrs[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	cands := make(map[int][]relation.IDValue, len(attrs))
	for _, a := range attrs {
		cands[a] = e.candidates(rt, a)
	}
	var best fix
	nw := e.opts.Workers
	if nw > len(subsets) {
		nw = len(subsets)
	}
	e.ensureScratches(nw)
	if nw <= 1 {
		for _, c := range subsets {
			f := e.bestValsFor(rt, fixed, c, violated, cands, e.scratches[0])
			if f.valid && f.better(best) {
				best = f
			}
		}
	} else {
		type ranked struct {
			f   fix
			idx int
		}
		bests := make([]ranked, nw)
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := ranked{idx: -1}
				wrt := rt.Probe(e.repr.Dict())
				sc := e.scratches[w]
				for i := w; i < len(subsets); i += nw {
					f := e.bestValsFor(wrt, fixed, subsets[i], violated, cands, sc)
					if f.valid && f.better(local.f) {
						local = ranked{f: f, idx: i}
					}
				}
				bests[w] = local
			}(w)
		}
		wg.Wait()
		bestIdx := -1
		for _, r := range bests {
			if r.idx < 0 {
				continue
			}
			if bestIdx < 0 || r.f.better(best) || (!best.better(r.f) && r.idx < bestIdx) {
				best, bestIdx = r.f, r.idx
			}
		}
	}
	if !best.valid {
		// Defensive: the all-null fix on the first k attributes.
		vals := make([]relation.IDValue, k)
		for i := range vals {
			vals[i] = relation.NullIDValue
		}
		best = fix{attrs: attrs[:k], vals: vals, valid: true}
	}
	return best
}

// ensureScratches sizes the per-worker cost scratch pool to at least n
// (minimum one, for the sequential path). Scratches are reused across
// bestFix calls — worker w always gets scratches[w], and the WaitGroup
// barrier orders its uses — so the local memos warm up over the run.
func (e *engine) ensureScratches(n int) {
	if n < 1 {
		n = 1
	}
	for len(e.scratches) < n {
		e.scratches = append(e.scratches, e.model.Scratch())
	}
}

// bestValsFor finds the cheapest consistent value combination for the
// attribute set c, drawing per-attribute candidates from cands; sc is
// the calling worker's cost scratch. rt and the candidates carry their ids,
// so nothing in here — the odometer loop least of all — touches the
// dictionary or its lock.
func (e *engine) bestValsFor(rt *relation.Tuple, fixed uint64, c []int, violated []uint64, cands map[int][]relation.IDValue, sc *cost.Scratch) fix {
	var cmask uint64
	for _, a := range c {
		cmask |= 1 << uint(a)
	}
	checkMask := fixed | cmask
	contested := 0
	for _, m := range violated {
		if m&cmask != 0 {
			contested++
		}
	}
	// The odometer below only mutates rt's values at the attributes in c,
	// and a group's violation count depends only on rt's values at X ∪
	// {A}. Groups disjoint from c are therefore loop invariants: count
	// them once here instead of once per candidate combination. Of those,
	// a group lying entirely inside checkMask that is violated now stays
	// violated for every candidate — no combination can be consistent, so
	// the whole enumeration is skipped (exactly what the unhoisted loop
	// would conclude, one rejected candidate at a time).
	var (
		variant      []int // e.groups indices whose mask intersects c
		variantCheck []int // the variant groups within checkMask
		baseVio      int   // Σ violations of the invariant groups
	)
	for i := range e.groups {
		gi := &e.groups[i]
		if gi.mask&cmask != 0 {
			variant = append(variant, i)
			if gi.mask&checkMask == gi.mask {
				variantCheck = append(variantCheck, i)
			}
			continue
		}
		n := e.groupViolations(gi.g, rt)
		baseVio += n
		if n > 0 && gi.mask&checkMask == gi.mask {
			return fix{}
		}
	}
	cvals := make([][]relation.IDValue, len(c))
	saved := make([]relation.IDValue, len(c))
	for i, a := range c {
		cvals[i] = cands[a]
		saved[i] = rt.At(a)
	}
	defer func() {
		for i, a := range c {
			rt.SetAt(a, saved[i])
		}
	}()
	dict := e.repr.Dict()
	var best fix
	bestIdx := make([]int, len(c)) // odometer position of best; vals materialize after the loop
	idx := make([]int, len(c))
	for {
		for i, a := range c {
			rt.SetAt(a, cvals[i][idx[i]])
		}
		consistent := true
		for _, gi := range variantCheck {
			if e.groupViolations(e.groups[gi].g, rt) > 0 {
				consistent = false
				break
			}
		}
		if consistent {
			var chg float64
			for i, a := range c {
				if v := cvals[i][idx[i]]; !relation.StrictEq(saved[i].Value, v.Value) {
					chg += sc.ChangeFromInterned(dict, rt, a, saved[i], v)
				}
			}
			v := baseVio
			for _, gi := range variant {
				v += e.groupViolations(e.groups[gi].g, rt)
			}
			f := fix{
				attrs:     c,
				primary:   chg * float64(v),
				cost:      chg,
				vio:       v,
				contested: contested,
				valid:     true,
			}
			if f.better(best) {
				best = f
				copy(bestIdx, idx)
			}
		}
		// Advance the odometer.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(cvals[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	if best.valid {
		best.vals = make([]relation.IDValue, len(c))
		for i := range c {
			best.vals[i] = cvals[i][bestIdx[i]]
		}
	}
	return best
}

// candidates assembles the value candidates for attribute a of rt, in the
// spirit of FINDV (§4.2) and the cost-based indices (§5.2): the current
// value, constants from applicable pattern tuples, donor values from
// clean tuples agreeing with rt on a rule's LHS, the nearest active-
// domain values by the DL metric, and null. Each comes with its id, looked
// up here once, so the enumeration that follows never needs the strings'
// identity again.
func (e *engine) candidates(rt *relation.Tuple, a int) []relation.IDValue {
	var out []relation.IDValue
	add := func(v relation.IDValue) {
		if v.Null {
			return
		}
		for _, o := range out {
			if o.Str == v.Str {
				return
			}
		}
		out = append(out, v)
	}
	add(rt.At(a)) // unchanged first
	for _, gi := range e.groups {
		if gi.g.A() != a {
			continue
		}
		for _, n := range gi.g.MatchingRules(rt) {
			if n.ConstantRHS() {
				add(e.repr.Dict().Resolve(relation.S(n.TpA.Const)))
				continue
			}
			// Variable RHS: the clean bucket dictates the value.
			for _, id := range gi.g.Bucket(rt) {
				if id == rt.ID {
					continue
				}
				add(e.repr.Tuple(id).At(a))
				break // clean buckets agree; one donor suffices
			}
		}
	}
	if !rt.Vals[a].Null {
		for _, v := range e.nearest(a, rt.Vals[a].Str) {
			add(v)
		}
	}
	return append(out, relation.NullIDValue)
}

// nearest returns the memoized cost-based index lookup for (a, v): each
// round of TUPLERESOLVE's greedy cover asks again for the neighbours of
// every attribute still open, whose values have not changed.
func (e *engine) nearest(a int, v string) []relation.IDValue {
	key := nearKey{a, v}
	if res, ok := e.nearCache[key]; ok {
		e.stats.NearHits++
		return res
	}
	e.stats.Nearest++
	strs := e.clusterIndex(a).Nearest(v, e.opts.NearestK)
	res := make([]relation.IDValue, len(strs))
	for i, s := range strs {
		res[i] = e.repr.Dict().Resolve(relation.S(s))
	}
	e.nearCache[key] = res
	return res
}

// clusterIndex lazily builds the cost-based index over adom(Repr, a).
func (e *engine) clusterIndex(a int) cluster.Index {
	if ix, ok := e.clusterIdx[a]; ok {
		return ix
	}
	e.stats.Builds++
	ix := cluster.New(e.repr.ActiveDomain(a), nil)
	e.clusterIdx[a] = ix
	return ix
}

// forget takes out of the cost-based indices every value the removed
// tuples just took out of the active domain, so TUPLERESOLVE cannot offer a
// vanished value as a donor (§3.1: repairs draw from adom ∪ null). A
// BK-tree drops the value in place — its Nearest depends on the live
// values only, so it goes on answering exactly as one rebuilt over the
// shrunk domain would — and no index is rebuilt on the delete/update path.
// The exception is the small domain: a HAC tree refuses (its answers
// depend on its shape), and a BK-tree that shrinks to HAC size hands over
// to one; both are dropped here and rebuilt by the next probe that needs
// them, which is rare and cheap at that size.
func (e *engine) forget(removed []*relation.Tuple) {
	for a, ix := range e.clusterIdx {
		for _, t := range removed {
			v := t.Vals[a]
			if v.Null || e.repr.DomainCount(a, v.Str) > 0 {
				continue
			}
			if !ix.Remove(v.Str) || ix.Len() <= cluster.HACSizeLimit {
				st := ix.Stats()
				st.Tombstones = 0 // gone with the index
				e.retired = e.retired.Plus(st)
				delete(e.clusterIdx, a)
				break
			}
		}
	}
}

// bitsOf expands a bitmask into sorted attribute positions.
func bitsOf(m uint64) []int {
	var out []int
	for a := 0; m != 0; a++ {
		if m&1 == 1 {
			out = append(out, a)
		}
		m >>= 1
	}
	sort.Ints(out)
	return out
}
