package repair

import (
	"fmt"
	"math"
	"math/bits"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cost"
	"cfdclean/internal/eqclass"
	"cfdclean/internal/relation"
)

// Batch runs algorithm BATCHREPAIR (Fig. 4): given a database d and a set
// sigma of normal-form CFDs, it computes a repair of d satisfying sigma.
// The input database is not modified. Sigma must be satisfiable.
//
// The greedy loop resolves one violation at a time, chosen by PICKNEXT
// as the cheapest available fix under the cost model, acting on
// equivalence classes of tuple attributes rather than on values directly;
// when no dirty tuples remain, classes whose target is still '_' are
// instantiated with least-cost constants, which may surface new
// violations and re-enter the loop (Theorem 4.2 guarantees termination).
//
// The loop runs once per connected component of the input's violation
// graph (cfd.VioStore.Partition: tuples sharing no violation), in
// canonical order, on one engine and one working copy: a component's
// repairs stay in place, so the next component sees them. The components
// bound PICKNEXT's per-step scan to one component's dirty tuples; the
// equivalence classes are reset between them.
//
// The classes number cell (t, A) as position(t)·arity + A, t's index in
// the working copy's tuple slice. The working copy is never reordered:
// the loop only updates cells, never inserts or deletes, so a cell keeps
// its number for the whole run and a class member reaches its tuple by
// array index, with no id lookup.
func Batch(d *relation.Relation, sigma []*cfd.Normal, opts *Options) (*Result, error) {
	o := opts.withDefaults()
	if _, err := cfd.Satisfiable(sigma); err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	if cells := d.Size() * d.Schema().Arity(); cells > math.MaxInt32 {
		return nil, fmt.Errorf("repair: %d cells exceed the equivalence classes' range", cells)
	}
	work := d.Clone()
	store := cfd.Compile(work.Dict(), sigma).NewVioStore(work)
	// Detach the store before handing the repaired relation to the
	// caller, so their later mutations don't pay maintenance.
	defer store.Close()
	comps, groups := store.Partition()
	res := &Result{Components: len(comps)}
	for _, comp := range comps {
		res.LargestComponent = max(res.LargestComponent, len(comp))
	}
	e := newEngine(store, d, o)
	// Safety bound from the termination argument of Theorem 4.2: the
	// progress measure is bounded by 3k for k = (tuple, attribute) pairs.
	limit := 3*e.rel.Size()*e.rel.Schema().Arity() + 1024
	for _, comp := range comps {
		e.seed(comp, groups)
		for {
			if err := e.mainLoop(limit); err != nil {
				return nil, err
			}
			res.InstantiationRounds++
			if !e.instantiate() {
				break
			}
		}
		e.resetClasses()
	}
	if !store.Satisfied() {
		return nil, fmt.Errorf("repair: internal: %d violations left after the last component", store.TotalViolations())
	}
	res.Resolutions, res.work = e.resolutions, e.work
	repaired := e.rel
	c, err := o.CostModel.Repair(repaired, d)
	if err != nil {
		return nil, err
	}
	res.Repair = repaired
	res.Cost = c
	res.Changes = cost.Dif(repaired, d)
	return res, nil
}

// mainLoop resolves violations until every dirty set drains (Fig. 4
// lines 5–8). limit is the absolute resolution count beyond which the
// termination invariant is considered broken.
func (e *engine) mainLoop(limit int) error {
	for {
		p, ok := e.pickNext()
		if !ok {
			return nil
		}
		if err := e.execute(p); err != nil {
			return fmt.Errorf("repair: resolving violation: %w", err)
		}
		if e.resolutions > limit {
			return fmt.Errorf("repair: exceeded %d resolutions; termination invariant broken", limit)
		}
	}
}

// pickNextScan caps how many live violations PICKNEXT evaluates per group
// in one call. The paper's unoptimized PICKNEXT scans every dirty tuple of
// every CFD and "runs very slow" (§7.2); like the authors we bound the
// scan and use the CFD dependency graph to focus it.
const pickNextScan = 64

// pickNext implements procedure PICKNEXT (Fig. 5) with the §7.2
// dependency-graph optimization: groups are visited in topological order
// of the CFD dependency graph's condensation, and the cheapest plan of
// the first stratum holding a live violation is returned. Repairing
// upstream rules first matters for accuracy: a rule whose LHS attribute
// still carries noise would otherwise commit a wrong constant (derived
// from the dirty LHS) to an equivalence class, and undoing constants is
// impossible — the conflict would surface later as LHS edits or nulls on
// clean tuples. Within a stratum the fix of least cost wins, so
// low-weight (likely dirty) cells are repaired before trusted ones. At
// most pickNextScan live violations per group are evaluated in one call,
// and stale dirty entries are dropped as they are discovered.
//
// A dirty set is a bitset over id rank, walked from its lowest member, so
// dirty tuples are visited in ascending id order with no collection and
// no sort: the violations scanned under the cap, and the winner of cost
// ties, are fixed properties of the engine state, and a repair is a
// function of its input.
func (e *engine) pickNext() (plan, bool) {
	var best plan
	bestOK := false
	bestComp := 0
	tuples := e.rel.Tuples()
	for _, gi := range e.order {
		if bestOK && e.comp[gi] > bestComp {
			break // strictly later stratum; the current best stands
		}
		if e.store.GroupTotal(gi) == 0 {
			// The maintained per-group count is zero, and every violation
			// the class-aware findViolation can see is also a raw store
			// violation (class identity only ever *adds* equality), so
			// the whole dirty set of this group is stale — skip it.
			continue
		}
		set := e.dirty[gi]
		for e.low[gi] < len(set) && set[e.low[gi]] == 0 {
			e.low[gi]++
		}
		scanned := 0
		for w := e.low[gi]; w < len(set) && scanned < pickNextScan; w++ {
			for word := set[w]; word != 0 && scanned < pickNextScan; word &= word - 1 {
				r := bits.TrailingZeros64(word)
				t := tuples[e.byRank[w*64+r]]
				e.work.visits++
				v, live := e.findViolation(gi, t)
				var p plan
				if live {
					p, live = e.planViolation(v)
					// planViolation fails only for an unsatisfiable Σ;
					// drop the entry defensively rather than loop forever.
				}
				if !live {
					set[w] &^= 1 << r
					continue
				}
				if !bestOK || p.cost < best.cost {
					best, bestOK = p, true
					bestComp = e.comp[gi]
				}
				scanned++
			}
		}
	}
	return best, bestOK
}

// instantiate is the instantiation phase of Fig. 4 (lines 9–13): every
// equivalence class whose target is still '_' and whose members disagree
// gets the constant of least cost among its members' current values.
// Reports whether anything changed (if so, new violations may exist and
// the main loop must run again).
func (e *engine) instantiate() bool {
	changed := false
	e.classes.Roots(func(rep eqclass.Key, kind eqclass.Kind, _ string, members []eqclass.Key) {
		if kind != eqclass.Unset || len(members) < 2 {
			return
		}
		// Gather the distinct stored values of the members.
		var candidates []relation.IDValue
		seen := make(map[relation.ValueID]bool)
		allEqual := true
		var first relation.Value
		for i, m := range members {
			t, a := e.cell(m)
			v := t.At(a)
			if i == 0 {
				first = v.Value
			} else if !relation.StrictEq(first, v.Value) {
				allEqual = false
			}
			if !v.Null && !seen[v.ID] {
				seen[v.ID] = true
				candidates = append(candidates, v)
			}
		}
		if allEqual {
			return // nothing to reconcile; leave the target open (no-op)
		}
		if len(candidates) == 0 {
			e.classes.SetNull(rep)
			e.applyTarget(rep)
			changed = true
			return
		}
		best := candidates[0]
		bestCost := e.classCost(rep, best)
		for _, v := range candidates[1:] {
			if c := e.classCost(rep, v); c < bestCost {
				best, bestCost = v, c
			}
		}
		if err := e.classes.SetConst(rep, best.Str); err != nil {
			// Unreachable: the class was Unset above and Roots holds no
			// concurrent mutators; fall back to null to stay safe.
			e.classes.SetNull(rep)
		}
		e.applyTarget(rep)
		changed = true
	})
	return changed
}
