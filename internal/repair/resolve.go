package repair

import (
	"slices"
	"strings"

	"cfdclean/internal/cfd"
	"cfdclean/internal/eqclass"
	"cfdclean/internal/relation"
)

// planKind enumerates the repair actions of CFD-RESOLVE (§4.1).
type planKind int

const (
	// planSetConst upgrades targ(eq(k1)) from '_' to the constant v
	// (cases 1.1 and 1.2 with an available LHS attribute).
	planSetConst planKind = iota
	// planSetNull upgrades targ(eq(k1)) to null (the fallback of cases
	// 1.2 and 2.2 when no certain value resolves the conflict).
	planSetNull
	// planMerge merges eq(k1) and eq(k2) (case 2.1).
	planMerge
)

// plan is a fully evaluated resolution step with its Cost(t, B, v); the
// cheapest plan across the scanned violations is executed (PICKNEXT,
// Fig. 5).
type plan struct {
	kind planKind
	k1   eqclass.Key
	k2   eqclass.Key    // merge partner (planMerge only)
	v    relation.Value // value to assign (planSetConst only)
	cost float64
}

// planViolation evaluates how CFD-RESOLVE would fix v and at what cost.
// ok is false when the violation cannot be resolved (which cannot happen
// for satisfiable Σ; kept as a defensive signal).
func (e *engine) planViolation(v violation) (plan, bool) {
	n, t := v.rule, v.t
	if v.partner == nil {
		// Case 1: t[X] ≼ tp[X] but t[A] ⋠ tp[A], tp[A] a constant. Per
		// §3.1 the violation can be resolved either by modifying the RHS
		// to match tp[A] or by editing an LHS attribute so that t[X] no
		// longer matches the pattern; the cheaper option wins. The LHS
		// alternative is essential when the LHS itself carries the noise
		// (e.g. a mistyped zip that happens to equal another city's zip):
		// blindly enforcing the pattern constant would rewrite correct
		// attributes of the tuple — and of every class member.
		ka := e.key(t, n.A)
		if kind, _ := e.classes.Target(ka); kind == eqclass.Unset {
			// Case 1.1: the RHS target is free; fix it to the pattern
			// constant. §3.1 also allows an LHS edit here, and it is
			// essential when the LHS itself carries the noise — e.g. a
			// zip mistyped into another city's zip would otherwise drag
			// the tuple's whole (possibly class-merged) address to the
			// wrong city. But pattern rows are trusted and the dirty and
			// clean weight ranges overlap, so a plain cost comparison
			// misfires on marginal cases; the LHS alternative is taken
			// only when it wins by a factor of two — in practice, when
			// enforcing the constant would rewrite a sizable equivalence
			// class while one LHS cell explains the violation.
			val := e.dict().Resolve(relation.S(n.TpA.Const))
			rhs := plan{kind: planSetConst, k1: ka, v: val.Value, cost: e.classCost(ka, val)}
			if lhs, ok := e.planLHS(v.gi, t, n, true); ok && 2*lhs.cost < rhs.cost {
				return lhs, true
			}
			return rhs, true
		}
		// Case 1.2: the RHS target is a different constant or null; the
		// violation must be resolved on the LHS — a situation that does
		// not arise when repairing traditional FDs.
		return e.planLHS(v.gi, t, n, true)
	}
	// Case 2: t violates a variable-RHS rule with partner t'.
	ka, kb := e.key(t, n.A), e.key(v.partner, n.A)
	akind, aval := e.classes.Target(ka)
	bkind, bval := e.classes.Target(kb)
	switch {
	case akind == eqclass.Null || bkind == eqclass.Null:
		// Case 2.3: one side is already null; by the SQL semantics the
		// violation is resolved. findViolation filters these out, but a
		// concurrent upgrade within this scan batch may race here; treat
		// as a no-op merge with zero cost.
		return plan{}, false
	case akind == eqclass.Const && bkind == eqclass.Const && aval != bval:
		// Case 2.2: distinct constant targets; edit the LHS of t or t'.
		p1, ok1 := e.planLHS(v.gi, t, n, false)
		p2, ok2 := e.planLHS(v.gi, v.partner, n, false)
		switch {
		case ok1 && ok2:
			if p1.cost <= p2.cost {
				return p1, true
			}
			return p2, true
		case ok1:
			return p1, true
		case ok2:
			return p2, true
		default:
			return plan{}, false
		}
	default:
		// Case 2.1: at least one target is '_' and none is null; merge.
		p := plan{kind: planMerge, k1: ka, k2: kb}
		// Cost it as PICKNEXT does (FINDV with B = A): the merged class
		// will eventually hold one value v — the side's constant if one is
		// fixed, otherwise the better of the two stored values (the
		// most-common-value strategy) — and the cost is what assigning v
		// across both classes would charge. The value itself stays
		// deferred to instantiation; only the cost is estimated now.
		// Merges bridging agreeing values cost 0 and execute first;
		// merges bridging a disagreement compete on real cost, so a
		// transiently mismatched tuple gets its LHS repaired before it
		// can pollute a large clean class.
		switch {
		case akind == eqclass.Const:
			p.cost = e.propagationCost(v.gi, t, kb, aval)
		case bkind == eqclass.Const:
			p.cost = e.propagationCost(v.gi, v.partner, ka, bval)
		default:
			va, vb := t.At(n.A), v.partner.At(n.A)
			ca := e.classCost(ka, va) + e.classCost(kb, va)
			cb := e.classCost(ka, vb) + e.classCost(kb, vb)
			if cb < ca {
				p.cost = cb
			} else {
				p.cost = ca
			}
		}
		// §3.1 also lists an LHS alternative: separate t[X] from t'[X]
		// instead of equating the RHS. Merging is the default (as in
		// [5], the deferred value choice is what equivalence classes are
		// for), but when two tuples agree on X only because one side's
		// key is itself noise — two typo'd zips colliding, a stolen key
		// value — the merge would chain two unrelated clusters together
		// and a later majority commit would rewrite the smaller one.
		// The same conservative margin as case 1.1 applies: the LHS
		// edit must undercut the merge by a factor of two, which in
		// practice it only does when the merge bridges a high-weight
		// disagreement while one low-weight LHS cell explains it.
		best := p
		if q, lok := e.planLHS(v.gi, t, n, false); lok && 2*q.cost < best.cost {
			best = q
		}
		if q, lok := e.planLHS(v.gi, v.partner, n, false); lok && 2*q.cost < best.cost {
			best = q
		}
		return best, true
	}
}

// propagationCost estimates the true cost of merging a constant-carrying
// class (tuple c, value cval) with the unset class kb of one disagreeing
// partner in group gi. Costing just the one pair systematically
// undercounts: the same constant will be pushed into every other partner
// of c's group one merge at a time, so the decision to start propagating
// must carry the whole bill. The estimate is the pairwise class cost
// scaled by the number of partners currently disagreeing with c — the
// members of c's bucket whose stored A-value is neither null nor c's,
// read off the bucket's tally. When the constant is right (one noisy
// partner) the scale factor is 1 and nothing changes; when the constant
// is wrong (it disagrees with a whole clean group) the scaled cost lets
// PICKNEXT prefer any plan that separates c instead.
func (e *engine) propagationCost(gi int, c *relation.Tuple, kb eqclass.Key, cval string) float64 {
	pair := e.classCost(kb, e.dict().Resolve(relation.S(cval)))
	_, tally := e.groups[gi].Bucket(c)
	disagree := tally.NonNull() - tally.Count(c.IDAt(e.groups[gi].A()))
	if disagree > 1 {
		return pair * float64(disagree)
	}
	return pair
}

// planLHS builds the LHS-edit plan of cases 1.2 and 2.2 for tuple t and
// rule n: choose an attribute B ∈ X whose equivalence class is still
// free, and a replacement value v ≠ t[B] via FINDV; if no free attribute
// exists, fall back to nulling the class with the smallest weight (§4.1).
//
// needConstCell restricts candidates to attributes whose pattern cell is
// a constant: for single-tuple (case 1) violations, editing an attribute
// under a wildcard cell cannot break the pattern match, so only constant
// cells help. For pairwise (case 2.2) violations any LHS edit separates
// t[X] from t'[X].
func (e *engine) planLHS(gi int, t *relation.Tuple, n *cfd.Normal, needConstCell bool) (plan, bool) {
	best := plan{cost: -1}
	for i, a := range n.X {
		if needConstCell && n.TpX[i].Wildcard {
			continue
		}
		kb := e.key(t, a)
		if kind, _ := e.classes.Target(kb); kind != eqclass.Unset {
			continue
		}
		var p plan
		if v, vio, c, ok := e.findV(gi, t, a); ok {
			// Scale by the violations the edited tuple would retain, as
			// the incremental engine's costfix does (§5.1): an LHS value
			// that silences this rule but leaves the tuple fighting
			// others is no fix, just a shifted conflict.
			p = plan{kind: planSetConst, k1: kb, v: v, cost: c * float64(1+vio)}
		} else {
			// FINDV found no semantically related value; assign null.
			p = plan{kind: planSetNull, k1: kb, cost: e.classWeight(kb)}
		}
		if best.cost < 0 || p.cost < best.cost {
			best = p
		}
	}
	if best.cost >= 0 {
		return best, true
	}
	// No free LHS attribute: the conflict has no certain resolution. Null
	// the LHS class with minimal weight (anything but an already-null
	// class, which would be a no-op — and would mean the tuple no longer
	// matches the pattern anyway).
	for _, a := range n.X {
		kb := e.key(t, a)
		if kind, _ := e.classes.Target(kb); kind == eqclass.Null {
			continue
		}
		p := plan{kind: planSetNull, k1: kb, cost: e.classWeight(kb)}
		if best.cost < 0 || p.cost < best.cost {
			best = p
		}
	}
	return best, best.cost >= 0
}

// candidate is one FINDV replacement value with its support: how many
// context tuples carry it.
type candidate struct {
	v relation.IDValue
	n int
}

// findV implements procedure FINDV (§4.2) for an LHS attribute B of a
// rule of group gi: gather the set S of tuples agreeing with t on
// X ∪ {A} \ {B} — the tuples sharing t's "semantic context" — and pick
// from their B-values the candidate v ≠ t[B]. S is t's bucket in the
// support index, whose tally of B holds every candidate with its support,
// so S itself is never walked. It returns v, the violations t would
// retain under it, and Cost(t, B, v); ok is false when no such value
// exists (the caller then assigns null).
//
// Candidates are ranked by the violations t would incur with B := v (the
// value must fit every rule covering B, not just the one being resolved —
// a zip that matches the city but not the street would only shift the
// conflict onto ϕ4 and domino from there), then by support — how many
// context tuples carry the value, the paper's most-common-value strategy —
// and by Cost(t, B, v) only to break ties. Ranking by cost alone is a trap
// at scale: the DL-closest "different value" in any context is usually
// another tuple's typo of the same string, and picking it would spread
// noise onto clean tuples. Candidates are visited in sorted value order so
// full ties break lexicographically, never by map or bucket order — part
// of the engine's determinism-by-construction.
//
// PICKNEXT re-plans after every resolution and most of what it asks has
// not changed since it last asked, so the answer is kept (engine.found)
// and reused while the working relation's version and |eq(t, B)| are both
// what they were. That reuse is exact: FINDV reads the relation — the
// support bucket's tally, t's values and the LHS indexes' tallies, none of
// which moves but by an effective write, and every effective write bumps
// the version — and the members of eq(t, B), whose costs it sums.
// Within one component a class only grows (by Merge), so an unchanged size
// is an unchanged membership, in the same order; Batch clears the memo
// when it resets the classes between components. Weights do not change
// during a run. The size is read with Peek, so a cached answer registers
// no key a fresh one would not have.
func (e *engine) findV(gi int, t *relation.Tuple, b int) (relation.Value, int, float64, bool) {
	ix := e.supportIndex(gi, b)
	if ix == nil {
		return relation.Value{}, 0, 0, false
	}
	fk := foundKey{ix: ix, k: e.key(t, b)}
	ver, size := e.rel.Version(), e.classes.Peek(fk.k)
	if f, hit := e.found[fk]; hit && f.ver == ver && f.size == size {
		return f.v, f.vio, f.cost, f.ok
	}
	v, vio, c, ok := e.findVUncached(ix, t, b)
	e.found[fk] = foundV{ver: ver, size: size, v: v, vio: vio, cost: c, ok: ok}
	return v, vio, c, ok
}

// foundKey names one FINDV question: the support index it is answered from
// — one per attribute set X ∪ {A} \ {B}, so groups sharing that set share
// the answers — and the cell (t, B).
type foundKey struct {
	ix *relation.HashIndex
	k  eqclass.Key
}

// foundV is one FINDV answer with the relation version and class size it
// was computed at.
type foundV struct {
	ver  uint64
	size int
	v    relation.Value
	vio  int
	cost float64
	ok   bool
}

// findVUncached is FINDV's body over support index ix. The candidates and
// their support are the values of t's bucket's tally of B, less t's own
// value (the tally counts no null): no member is walked and no id sorted,
// only the distinct values, by string. Everything runs on interned ids and
// the engine's reusable buffers: a warm call allocates nothing.
func (e *engine) findVUncached(ix *relation.HashIndex, t *relation.Tuple, b int) (relation.Value, int, float64, bool) {
	curID := t.IDAt(b)
	_, tally := ix.BucketAt(ix.BucketOf(t))
	dict := e.dict()
	cands := e.candBuf[:0]
	for id, n := range tally[0].All() {
		e.work.findVReads++
		if id != curID {
			cands = append(cands, candidate{v: relation.IDValue{Value: dict.Value(id), ID: id}, n: n})
		}
	}
	e.candBuf = cands
	return e.bestCandidate(t, b, cands)
}

// bestCandidate ranks FINDV's candidates for B := v, sorting them by value
// first (see findV); ok is false when there are none.
func (e *engine) bestCandidate(t *relation.Tuple, b int, cands []candidate) (relation.Value, int, float64, bool) {
	if len(cands) == 0 {
		return relation.Value{}, 0, 0, false
	}
	slices.SortFunc(cands, func(x, y candidate) int { return strings.Compare(x.v.Str, y.v.Str) })

	// vio(t) under B := v differs from vio(t) only in the groups whose
	// X ∪ {A} contains B: the other groups' share — the base every
	// candidate adds to — is vio(t) group by group, less what the touching
	// groups contribute today.
	touching := e.touching[b]
	e.vioBuf = e.det.VioCounts(t, e.vioBuf)
	base := 0
	for _, n := range e.vioBuf {
		base += n
	}
	for _, i := range touching {
		base -= e.vioBuf[i]
	}
	probe := e.probeOf(t)
	kb := e.key(t, b)
	var best relation.Value
	bestVio, bestN, bestCost := -1, 0, -1.0
	for _, cd := range cands {
		probe.SetAt(b, cd.v)
		vio := base
		for _, i := range touching {
			vio += e.groups[i].VioCount(probe)
		}
		c := e.classCost(kb, cd.v)
		better := bestVio < 0 ||
			vio < bestVio ||
			(vio == bestVio && cd.n > bestN) ||
			(vio == bestVio && cd.n == bestN && c < bestCost)
		if better {
			best, bestVio, bestN, bestCost = cd.v.Value, vio, cd.n, c
		}
	}
	return best, bestVio, bestCost, true
}

// probeOf loads the engine's trial tuple with t's id and values.
func (e *engine) probeOf(t *relation.Tuple) *relation.Tuple {
	if e.probe == nil {
		e.probe = t.Probe(e.dict())
	}
	e.probe.ID = t.ID
	for a := range t.Vals {
		e.probe.SetAt(a, t.At(a))
	}
	return e.probe
}

// execute applies a plan: the body of CFD-RESOLVE. It updates equivalence
// classes, writes assigned targets through to the working relation, and
// maintains the dirty sets.
func (e *engine) execute(p plan) error {
	e.resolutions++
	switch p.kind {
	case planSetConst:
		if err := e.classes.SetConst(p.k1, p.v.Str); err != nil {
			return err
		}
		e.applyTarget(p.k1)
	case planSetNull:
		e.classes.SetNull(p.k1)
		e.applyTarget(p.k1)
	case planMerge:
		if err := e.classes.Merge(p.k1, p.k2); err != nil {
			return err
		}
		if _, ok := e.classes.Value(p.k1); ok {
			// One side carried a constant: write it through everywhere.
			e.applyTarget(p.k1)
		} else if v, ok := e.majorityValue(p.k1); ok {
			// FINDV's most-common-value strategy, applied eagerly: once a
			// class accumulates a clear majority of agreeing stored
			// values, the minority cells are noise with overwhelming
			// evidence, and committing now prevents a poor local decision
			// elsewhere — e.g. a constant-RHS rule matching the minority
			// value (a zip mistyped into another city's zip) would
			// otherwise fire first and drag the tuple to the wrong city.
			if err := e.classes.SetConst(p.k1, v.Str); err != nil {
				return err
			}
			e.applyTarget(p.k1)
		} else {
			// No constant and no majority yet: the value choice stays
			// deferred to instantiation (§4.1 — "we defer the assignment
			// of targ(E) as much as possible"). The tuples' violation
			// status changed; re-flag them.
			e.markDirty(p.k1)
			e.markDirty(p.k2)
		}
	}
	return nil
}

// majorityValue reports the stored value held by more than two thirds of
// k's class members, requiring at least three members; ok is false when
// the class is small or contested.
func (e *engine) majorityValue(k eqclass.Key) (relation.Value, bool) {
	members := e.classes.Members(k)
	if len(members) < 3 {
		return relation.Value{}, false
	}
	counts := make(map[string]int, 2)
	total := 0
	for _, m := range members {
		t, a := e.cell(m)
		v := t.Vals[a]
		if v.Null {
			continue
		}
		counts[v.Str]++
		total++
	}
	for s, c := range counts {
		if 3*c > 2*total && total >= 3 {
			return relation.S(s), true
		}
	}
	return relation.Value{}, false
}
