package increpair

import (
	"math/bits"
	"slices"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cost"
	"cfdclean/internal/relation"
	"cfdclean/internal/strdist"
)

// tupleResolve implements procedure TUPLERESOLVE (Fig. 7): greedily cover
// attr(R) with sets C of at most k attributes, choosing for each C the
// value tuple v̂ — drawn from adom(Repr) ∪ {null} — that keeps
// Repr ∪ {t[C/v̂]} consistent on the CFDs entirely within the fixed
// attributes and minimizes costfix.
//
// Three optimizations preserve the greedy's choices while skipping dead
// work. First, if the current tuple violates nothing, every remaining
// attribute is fixable at zero cost at once (the paper's greedy would
// pick those zero-cost sets first anyway). Second, attributes involved in
// no violated rule are likewise fixed unchanged before subsets of the
// contested attributes are enumerated — exactly the behaviour the paper
// describes in Example 5.1, where every attribute outside the violated
// CFDs is fixed without change first. Third, a round in which some C can
// stay as it is enumerates nothing (freePin): unchanged, C ranks (primary 0,
// cost 0, the round's Σ vio, the violated groups C meets), and a fix that
// changes a value costs w(t,A)·dis/max > 0 — the weights are checked, the
// metric separates distinct strings by contract — so it loses on cost even
// at primary 0, and the winner is picked among the unchanged C by mask.
func (e *engine) tupleResolve(t *relation.Tuple) *relation.Tuple {
	// rt carries ids (unseen constants as InvalidID) and is only changed
	// through SetAt, so every probe below runs on integers.
	rt := t.Probe(e.repr.Dict())
	if e.repr.Tuple(rt.ID) != nil {
		rt.ID = 0 // let Insert assign a fresh id later
	}
	var fixed uint64
	full := uint64(1)<<uint(e.arity) - 1
	for first := true; fixed != full; first = false {
		violated := e.countGroups(rt, first)
		// The closure of the violated rules' attributes over shared
		// embedded-FD groups: attributes outside it can never help (or
		// hurt) the open violations, because their groups are disjoint
		// from the contested ones — fix them unchanged at zero cost.
		// Attributes inside the closure stay open; Example 5.1 needs the
		// un-violated zip available when k = 3 reaches {CT, ST, zip}.
		contested := e.closure(violated) &^ fixed
		if contested == 0 {
			// Nothing is violated (or only within the fixed attributes,
			// impossible while the fixing invariant holds): done.
			break
		}
		fixed |= full &^ contested
		// C ranges over [contested]^k; a changed value is sure to cost
		// something only while every open weight is positive.
		e.attrs = e.attrs[:0]
		positive := true
		for m := contested; m != 0; m &= m - 1 {
			a := bits.TrailingZeros64(m)
			e.attrs = append(e.attrs, a)
			positive = positive && rt.Weight(a) > 0
		}
		k := min(e.opts.K, len(e.attrs))
		e.subsets = appendSubsets(e.subsets[:0], e.attrs, k)
		e.stats.Rounds++
		if c := freePin(e.subsets, k, fixed, violated); positive && c != 0 {
			e.stats.FreePins++
			fixed |= c
			continue
		}
		best := e.bestFix(rt, fixed, e.attrs, k, violated)
		for i, a := range best.attrs {
			rt.SetAt(a, best.vals[i])
			fixed |= 1 << uint(a)
		}
	}
	return rt
}

// probe counts the violations of rt against Repr within one embedded-FD
// group (the vio(t) contribution of the group, §3.1). The counting lives in
// the detector (Group.VioCount), which compares interned ids and reads the
// LHS bucket's tally — O(1) per call.
func (e *engine) probe(g cfd.Group, rt *relation.Tuple) int {
	e.stats.VioProbes++
	return g.VioCount(rt)
}

// countGroups probes every embedded-FD group with rt as it stands, each
// distinct LHS once for all the groups on it (Detector.VioCounts). The
// counts stay in e.cur for the round's bestFix; the attribute masks of the
// groups with at least one rule violated are returned (in a buffer reused
// by the next call). An arrival's first count goes through the store, so
// that one found clean — inserted as it stands — recounts no bucket
// (cfd.VioStore.VioCounts).
func (e *engine) countGroups(rt *relation.Tuple, first bool) []uint64 {
	e.stats.VioProbes += len(e.groups)
	if first {
		e.cur = e.store.VioCounts(rt, e.cur)
	} else {
		e.cur = e.det.VioCounts(rt, e.cur)
	}
	e.violated = e.violated[:0]
	for i, n := range e.cur {
		if n > 0 {
			e.violated = append(e.violated, e.groups[i].mask)
		}
	}
	return e.violated
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

// freePin decides a round of the greedy from the masks alone. Keeping every
// attribute of a subset C as it is costs nothing, and is consistent iff no
// violated group lies within fixed ∪ C (bestValsFor's check rule at the
// round's counts). Of the k-subsets laid end to end in subsets, freePin
// returns the mask of the first such C among those meeting the fewest
// violated groups; 0 if there is none.
func freePin(subsets []int, k int, fixed uint64, violated []uint64) (best uint64) {
	fewest := len(violated) + 1
	for ; len(subsets) > 0; subsets = subsets[k:] {
		var c uint64
		for _, a := range subsets[:k] {
			c |= 1 << uint(a)
		}
		met := 0
		for _, m := range violated {
			if m&^(fixed|c) == 0 {
				met = fewest // inconsistent; counting on only takes it further
			} else if m&c != 0 {
				met++
			}
		}
		if met < fewest {
			best, fewest = c, met
		}
	}
	return best
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

// resolveScratch is the scratch of the engine's evaluation of attribute
// subsets: its distance memo warms up over the run and its buffers are
// allocated once.
type resolveScratch struct {
	// sc memoizes the cost model's distances between interned values.
	sc *cost.Scratch

	// bestValsFor's state: per attribute of the subset, its candidates,
	// rt's own value and the odometer; per group meeting the subset, where
	// its count comes from.
	cvals        [][]relation.IDValue
	saved        []relation.IDValue
	idx, bestIdx []int
	single       []singleRef
	live         []liveRef
	keep         []relation.IDValue // the values of bestFix's best fix so far
}

// bestVals appends the values of bestValsFor's last valid result to dst.
func (w *resolveScratch) bestVals(dst []relation.IDValue) []relation.IDValue {
	for i, j := range w.bestIdx {
		dst = append(dst, w.cvals[i][j])
	}
	return dst
}

// singleRef is a group that meets the attribute subset in one attribute:
// its count for candidate j of that attribute is one[off+j] of the
// round's table.
type singleRef struct {
	off   int32
	pos   int  // the attribute's position in the subset
	check bool // the group lies within the fixed attributes and the subset
}

// liveRef is a group that meets the subset in two or more attributes and
// is probed per combination.
type liveRef struct {
	gi    int
	check bool
}

// appendSubsets appends every k-subset of attrs (1 ≤ k ≤ len(attrs)), in
// lexicographic order of positions, to dst, k attributes per subset.
func appendSubsets(dst, attrs []int, k int) []int {
	n := len(attrs)
	var buf [8]int
	idx := append(buf[:0], make([]int, k)...)
	for i := range idx {
		idx[i] = i
	}
	for {
		for _, i := range idx {
			dst = append(dst, attrs[i])
		}
		p := k - 1
		for p >= 0 && idx[p] == n-k+p {
			p--
		}
		if p < 0 {
			return dst
		}
		idx[p]++
		for q := p + 1; q < k; q++ {
			idx[q] = idx[q-1] + 1
		}
	}
}

// fillTable probes, for every group and every contested attribute of that
// group, rt with that attribute alone replaced by each of its candidates.
// Inside one bestFix a group's count depends only on rt's values at the
// group's own attributes, so a group that meets an attribute subset in one
// attribute has all its counts here, whatever the other attributes of the
// subset are set to: the odometers read them instead of probing once per
// combination. off[gi·arity+a] is where the counts of (group gi,
// attribute a) start in one, in candidate order.
func (e *engine) fillTable(rt *relation.Tuple, attrs []int) {
	e.one = e.one[:0]
	for i, gi := range e.groups {
		for _, a := range attrs {
			if gi.mask&(1<<uint(a)) == 0 {
				continue
			}
			e.off[i*e.arity+a] = int32(len(e.one))
			saved := rt.At(a)
			for _, v := range e.cands[a] {
				rt.SetAt(a, v)
				e.one = append(e.one, int32(e.probe(gi.g, rt)))
			}
			rt.SetAt(a, saved)
		}
	}
}

// bestFix evaluates every C ∈ [attrs]^k, as laid out in e.subsets, with
// every candidate value combination and returns the best valid fix: the
// first subset attaining the minimal costfix ranking. At least one valid
// fix always exists: the all-null assignment matches no pattern and
// conflicts with nothing (Example 5.1's (null, null)).
//
// Candidate values and the single-attribute violation counts (fillTable)
// depend only on rt's current state and are computed once up front. Since
// freePin the rounds that get here have a handful of subsets, and they are
// evaluated one after the other on rt itself. The result's attrs and vals
// live in the engine's buffers and hold until the next call.
func (e *engine) bestFix(rt *relation.Tuple, fixed uint64, attrs []int, k int, violated []uint64) fix {
	for _, a := range attrs {
		e.cands[a] = e.candidates(rt, a, e.cands[a][:0])
	}
	e.fillTable(rt, attrs)
	w := &e.rs
	var best fix
	for c := e.subsets; len(c) > 0; c = c[k:] {
		f := e.bestValsFor(rt, fixed, c[:k], violated)
		if f.valid && f.better(best) {
			w.keep = w.bestVals(w.keep[:0])
			f.vals = w.keep
			best = f
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

// bestValsFor finds the cheapest consistent value combination for the
// attribute set c, drawing per-attribute candidates from e.cands. rt and
// the candidates carry their ids, so nothing in here — the odometer loop
// least of all — touches the dictionary. The result carries no vals:
// e.rs.bestVals reads them off until the next call.
func (e *engine) bestValsFor(rt *relation.Tuple, fixed uint64, c []int, violated []uint64) fix {
	w := &e.rs
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
	// The odometer below only changes rt's values at the attributes in c,
	// and a group's violation count depends only on rt's values at X ∪
	// {A}. Groups disjoint from c are therefore loop invariants, counted
	// once per round (e.cur). Of those, a group lying entirely inside
	// checkMask that is violated now stays violated for every candidate —
	// no combination can be consistent, so the whole enumeration is
	// skipped (exactly what the unhoisted loop would conclude, one rejected
	// candidate at a time). Groups meeting c in one attribute read the
	// round's table; only those meeting it in two or more are probed per
	// combination.
	baseVio := 0
	w.single, w.live = w.single[:0], w.live[:0]
	for i := range e.groups {
		mask := e.groups[i].mask
		meet := mask & cmask
		check := mask&checkMask == mask
		switch {
		case meet == 0:
			n := e.cur[i]
			baseVio += n
			if n > 0 && check {
				return fix{}
			}
		case meet&(meet-1) == 0:
			a := bits.TrailingZeros64(meet)
			w.single = append(w.single, singleRef{off: e.off[i*e.arity+a], pos: slices.Index(c, a), check: check})
		default:
			w.live = append(w.live, liveRef{gi: i, check: check})
		}
	}
	w.cvals, w.saved, w.idx, w.bestIdx = w.cvals[:0], w.saved[:0], w.idx[:0], w.bestIdx[:0]
	for _, a := range c {
		w.cvals = append(w.cvals, e.cands[a])
		w.saved = append(w.saved, rt.At(a))
		w.idx = append(w.idx, 0)
		w.bestIdx = append(w.bestIdx, 0)
	}
	cvals, saved, idx := w.cvals, w.saved, w.idx
	dict := e.repr.Dict()
	var best fix
	for {
		consistent := true
		v := baseVio
		for _, s := range w.single {
			n := int(e.one[int(s.off)+idx[s.pos]])
			if n > 0 && s.check {
				consistent = false
				break
			}
			v += n
		}
		if consistent && len(w.live) > 0 {
			for i, a := range c {
				rt.SetAt(a, cvals[i][idx[i]])
			}
			for _, l := range w.live {
				n := e.probe(e.groups[l.gi].g, rt)
				if n > 0 && l.check {
					consistent = false
					break
				}
				v += n
			}
		}
		if consistent {
			var chg float64
			for i, a := range c {
				if v := cvals[i][idx[i]]; !relation.StrictEq(saved[i].Value, v.Value) {
					chg += w.sc.ChangeFromInterned(dict, rt, a, saved[i], v)
				}
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
				copy(w.bestIdx, idx)
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
	if len(w.live) > 0 {
		for i, a := range c {
			rt.SetAt(a, saved[i])
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
// identity again. They are appended to out, the attribute's buffer from the
// round before.
func (e *engine) candidates(rt *relation.Tuple, a int, out []relation.IDValue) []relation.IDValue {
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
			ids, _ := gi.g.Bucket(rt)
			for _, id := range ids {
				if id == rt.ID {
					continue
				}
				add(e.repr.Tuple(id).At(a))
				break // clean buckets agree; one donor suffices
			}
		}
	}
	if !rt.Vals[a].Null {
		for _, h := range e.nearest(a, rt.Vals[a].Str) {
			add(h.v)
		}
	}
	return append(out, relation.NullIDValue)
}

// maxRadius caps the similarity search: repair candidates farther than
// this from the query are not meaningfully "similar" (the paper's noise is
// at DL distance 1–6, and the normalized cost of such distant values
// approaches 1 anyway), and the cap turns most distance computations into
// cheap early exits of the bounded kernel.
const maxRadius = 8

// nearHit is a domain value at DL distance d from the query.
type nearHit struct {
	v relation.IDValue
	d int
}

// nearest is the cost-based index of §5.2: the up to NearestK values of
// adom(Repr, a) within maxRadius of v, by increasing (DL distance, value),
// the exact top-k — a function of the relation alone — in the engine's
// buffer until the next call. A first pass takes the bag distance of every
// live value's character profile from v's, a lower bound on their DL
// distance: it measures the values at bound 0 as it meets them and files
// the others by bound, dropping those beyond maxRadius. The second pass
// measures the files in increasing bound and stops at the first whose
// bound is past the worst distance that can still enter the result: no
// value left there can enter.
func (e *engine) nearest(a int, v string) []nearHit {
	e.stats.Nearest++
	e.stats.Visited += e.repr.ActiveDomainSize(a)
	e.dl.Reset(v)
	e.hits = e.hits[:0]
	worst := maxRadius
	q := strdist.ProfileOf(v)
	for b := range e.byBound {
		e.byBound[b] = e.byBound[b][:0]
	}
	e.repr.EachDomainValue(a, func(id relation.ValueID, s string) {
		var p strdist.Profile
		if int(id) < len(e.profiles) {
			p = e.profiles[id]
		}
		if p == (strdist.Profile{}) {
			p = e.learnProfile(id, s)
		}
		switch b := strdist.LowerBound(q, p); {
		case b == 0:
			worst = e.offer(relation.IDValue{Value: relation.S(s), ID: id}, 0, worst)
		case b <= maxRadius:
			e.byBound[b] = append(e.byBound[b], relation.IDValue{Value: relation.S(s), ID: id})
		}
	})
	for b := 1; b <= worst; b++ {
		for _, c := range e.byBound[b] {
			worst = e.offer(c, b, worst)
		}
	}
	return e.hits
}

// offer measures domain value c, whose profile bound is b, with the
// kernel cut off at worst, enters it into the best values found so far if
// it belongs there, and returns the worst distance that can still enter.
func (e *engine) offer(c relation.IDValue, b, worst int) int {
	hits, k := e.hits, e.opts.NearestK
	if b == worst && len(hits) == k && c.Str > hits[k-1].v.Str {
		return worst // it could only tie the last hit, and ties go by value
	}
	e.stats.Measured++
	d := e.dl.DistanceBounded(c.Str, worst)
	if d > worst {
		return worst
	}
	i := len(hits)
	for i > 0 && (hits[i-1].d > d || (hits[i-1].d == d && hits[i-1].v.Str > c.Str)) {
		i--
	}
	if i == k {
		return worst
	}
	if len(hits) < k {
		hits = append(hits, nearHit{})
	}
	copy(hits[i+1:], hits[i:])
	hits[i] = nearHit{c, d}
	e.hits = hits
	if len(hits) == k {
		return hits[k-1].d
	}
	return worst
}

// learnProfile fills the profile table's slot for value id, the string
// s: a value id names one string for the relation's lifetime, so the
// profile is worked out the first time the engine meets it. A zero slot is
// one not yet learned, or the zero profile of a value with a byte ≥ 0x80 or
// of the empty string, which is worked out again at every meeting —
// ProfileOf stops at the first such byte.
func (e *engine) learnProfile(id relation.ValueID, s string) strdist.Profile {
	if int(id) >= len(e.profiles) {
		e.profiles = append(e.profiles, make([]strdist.Profile, int(id)+1-len(e.profiles))...)
	}
	e.profiles[id] = strdist.ProfileOf(s)
	return e.profiles[id]
}
