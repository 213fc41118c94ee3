// Package repair implements the paper's batch repairing module: algorithm
// BATCHREPAIR (§4, Figs. 4–5) with procedures PICKNEXT, CFD-RESOLVE and
// FINDV over equivalence classes of tuple attributes. Finding a minimum-
// cost repair is NP-complete even for fixed schema and fixed Σ (paper
// Corollary 4.1), so the algorithm is a cost-guided greedy heuristic; it
// terminates and returns a repair satisfying Σ (Theorem 4.2).
package repair

import (
	"cmp"
	"fmt"
	"slices"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cost"
	"cfdclean/internal/eqclass"
	"cfdclean/internal/relation"
)

// Options configures BATCHREPAIR.
type Options struct {
	// CostModel scores candidate value changes; nil means the paper's
	// default (DL metric, §3.2).
	CostModel *cost.Model
	// NoDepGraph disables dependency-graph ordering of the embedded-FD
	// groups (then groups are visited in input order). Exposed for the
	// ablation benchmarks.
	NoDepGraph bool
	// Workers drives nothing: the violation store counts D's buckets from
	// their tallies and the repair loop runs on the caller's goroutine. The
	// benchmark compiles against it until ROADMAP item 1(i)(b).
	Workers int
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.CostModel == nil {
		out.CostModel = cost.Default()
	}
	return out
}

// Result reports a completed batch repair.
type Result struct {
	// Repair is the repaired database (the input is never modified).
	Repair *relation.Relation
	// Cost is cost(Repr, D) under the configured model (§3.2).
	Cost float64
	// Changes counts modified attribute values, dif(D, Repr).
	Changes int
	// Resolutions counts CFD-RESOLVE invocations (algorithm iterations),
	// summed across the violation-graph components.
	Resolutions int
	// InstantiationRounds counts how many times the instantiation phase
	// (Fig. 4 lines 9–13) ran, summed the same way.
	InstantiationRounds int
	// Components is the number of connected components of the input's
	// violation graph and LargestComponent the tuple count of the biggest.
	Components       int
	LargestComponent int

	work workCounts
}

// workCounts counts what one run did, as a function of its input alone:
// the dirty tuples PICKNEXT visited, the tally values FINDV read and the
// bucket members the partner search walked.
type workCounts struct {
	visits, findVReads, walked int
}

// engine is the mutable state of one BATCHREPAIR run: one working copy,
// its violation store, and the equivalence classes, dirty sets, cost memo
// and support indices of the greedy loop.
type engine struct {
	rel     *relation.Relation // working copy; stored values track targets
	orig    *relation.Relation // input database (for cost accounting)
	store   *cfd.VioStore      // delta-maintained violation state over the working copy
	det     *cfd.Detector      // the store's mask/index machinery
	groups  []cfd.Group
	scorer  *cost.Scratch // the run's distance memo over the cost model
	classes *eqclass.Classes
	arity   int // numbers the cells: (t, A) is position(t)·arity + A
	opts    Options

	order []int // group indices in repair order (dependency graph)
	comp  []int // comp[i] = dependency stratum of groups[i]
	// touching[a] lists the group indices whose X ∪ {A} contains
	// attribute a.
	touching [][]int

	// dirty[i] is the union of Dirty_Tuples(φ) over the rules φ in
	// groups[i]: tuples possibly violating some rule of the group, as a
	// bitset over id rank — bit r is the tuple of the r-th smallest id, at
	// position byRank[r] of the working copy (rankOf is the inverse) — so
	// it is walked in ascending id order with no sort. low[i] is the first
	// word of dirty[i] that may be non-zero.
	dirty  [][]uint64
	low    []int
	byRank []int32
	rankOf []int32

	// support[i][b] is the FINDV support index (§4.2) of groups[i] for
	// LHS attribute b: on X ∪ {A} \ {B}, tallying B; built lazily. Groups
	// with the same attribute set share one index per B; indexes lists
	// each once, for setStored to maintain.
	support [][]*relation.HashIndex
	indexes []*relation.HashIndex

	// found keeps FINDV's answers (see findV); cleared with the classes.
	found map[foundKey]foundV

	// Reusable buffers: FINDV's trial tuple, ranked candidates and
	// per-group vio(t).
	probe   *relation.Tuple
	candBuf []candidate
	vioBuf  []int

	resolutions int
	work        workCounts
}

// newEngine builds an engine over the store's relation, a private copy of
// orig. The one violation store serves the whole run: it has scanned once
// and maintains itself under every write the engine performs, via the
// relation's mutation journal — no per-round detector rebuilds. The
// equivalence classes range over every cell of the working copy, numbered
// by position (see key), and the dirty sets over every tuple, numbered by
// id rank: the engine only updates cells, never inserts or deletes, so no
// tuple moves and no rank changes during the run.
func newEngine(store *cfd.VioStore, orig *relation.Relation, opts Options) *engine {
	work, det := store.Relation(), store.Detector()
	arity := work.Schema().Arity()
	e := &engine{
		rel:      work,
		orig:     orig,
		store:    store,
		det:      det,
		groups:   det.Groups(),
		scorer:   opts.CostModel.Scratch(),
		classes:  eqclass.New(work.Dict(), work.Size()*arity),
		arity:    arity,
		opts:     opts,
		touching: make([][]int, arity),
		found:    make(map[foundKey]foundV),
	}
	ts := work.Tuples()
	e.byRank, e.rankOf = make([]int32, len(ts)), make([]int32, len(ts))
	for p := range e.byRank {
		e.byRank[p] = int32(p)
	}
	slices.SortFunc(e.byRank, func(p, q int32) int { return cmp.Compare(ts[p].ID, ts[q].ID) })
	for r, p := range e.byRank {
		e.rankOf[p] = int32(r)
	}
	n := len(e.groups)
	e.order, e.comp = make([]int, n), make([]int, n)
	e.dirty, e.low = make([][]uint64, n), make([]int, n)
	e.support = make([][]*relation.HashIndex, n)
	reps := make([]*cfd.Normal, n)
	for i, g := range e.groups {
		e.order[i] = i // NoDepGraph: input order, one flat stratum (comps all 0)
		reps[i] = g.Rep()
		for _, a := range g.X() {
			e.touching[a] = appendUnique(e.touching[a], i)
		}
		e.touching[g.A()] = appendUnique(e.touching[g.A()], i)
		e.dirty[i] = make([]uint64, (len(ts)+63)/64)
		e.support[i] = make([]*relation.HashIndex, arity)
	}
	if !opts.NoDepGraph {
		g := cfd.NewDepGraph(reps)
		e.order = g.Order()
		for i := range e.comp {
			e.comp[i] = g.Comp(i)
		}
	}
	return e
}

func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

// resetClasses empties the equivalence classes between components, and
// with them the FINDV memo: its entries are keyed by class sizes that mean
// nothing once the classes restart.
func (e *engine) resetClasses() {
	e.classes.Reset()
	clear(e.found)
}

// key returns the equivalence-class key of attribute a of tuple t: its
// cell number position(t)·arity + a in the working copy.
func (e *engine) key(t *relation.Tuple, a int) eqclass.Key {
	p, _ := e.rel.Position(t.ID)
	return eqclass.Key(p*e.arity + a)
}

// cell returns the tuple and attribute that key k numbers.
func (e *engine) cell(k eqclass.Key) (*relation.Tuple, int) {
	return e.rel.Tuples()[int(k)/e.arity], int(k) % e.arity
}

// setStored writes value v into attribute a of tuple t in the working
// relation and refreshes every index that covers a.
func (e *engine) setStored(t *relation.Tuple, a int, v relation.Value) {
	oldID := t.IDAt(a)
	old, err := e.rel.Set(t.ID, a, v)
	if err != nil {
		panic(fmt.Sprintf("repair: internal: %v", err))
	}
	if relation.StrictEq(old, v) {
		return
	}
	// The violation store (and with it the detector's LHS indices) is
	// maintained by the relation's mutation journal; only the FINDV
	// support indices are engine-owned and refreshed here.
	for _, ix := range e.indexes {
		ix.Update(t, a, oldID)
	}
}

// applyTarget writes the (just assigned) target value of k's class to the
// stored values of every class member and marks the affected tuples dirty
// for every group touching the written attributes (Fig. 4 "Update
// Dirty_Tuples").
func (e *engine) applyTarget(k eqclass.Key) {
	v, ok := e.classes.Value(k)
	if !ok {
		return
	}
	for _, m := range e.classes.Members(k) {
		t, a := e.cell(m)
		e.setStored(t, a, v)
		e.markDirty(m)
	}
}

// seed marks the tuples of one component of the input's violation graph
// dirty in the groups they violate under in the input (Fig. 4 line 4):
// groups[p] lists those of the tuple at position p (VioStore.Partition).
func (e *engine) seed(comp []relation.TupleID, groups [][]int) {
	for _, id := range comp {
		p, _ := e.rel.Position(id)
		for _, gi := range groups[p] {
			e.setDirty(gi, p)
		}
	}
}

// markDirty flags the tuple of cell k as possibly violating every group
// whose attributes include the cell's attribute.
func (e *engine) markDirty(k eqclass.Key) {
	p, a := int(k)/e.arity, int(k)%e.arity
	for _, gi := range e.touching[a] {
		e.setDirty(gi, p)
	}
}

// setDirty adds the tuple at position p to group gi's dirty set.
func (e *engine) setDirty(gi, p int) {
	r := int(e.rankOf[p])
	e.dirty[gi][r/64] |= 1 << (r % 64)
	e.low[gi] = min(e.low[gi], r/64)
}

// supportIndex returns (building if needed) the FINDV index of group gi
// for LHS attribute b: on the group's X ∪ {A} without b, tallying b, or
// nil when that leaves nothing. The index is built on the *sorted*
// attribute positions, so groups sharing an attribute set share the index
// for b whatever order their rules list it in.
func (e *engine) supportIndex(gi, b int) *relation.HashIndex {
	if ix := e.support[gi][b]; ix != nil {
		return ix
	}
	g := e.groups[gi]
	attrs := make([]int, 0, len(g.X())+1)
	for _, a := range g.X() {
		if a != b {
			attrs = append(attrs, a)
		}
	}
	if g.A() != b {
		attrs = append(attrs, g.A())
	}
	if len(attrs) == 0 {
		return nil
	}
	slices.Sort(attrs)
	for _, s := range e.support {
		if ix := s[b]; ix != nil && slices.Equal(ix.Attrs(), attrs) {
			e.support[gi][b] = ix
			return ix
		}
	}
	ix := relation.NewCountedHashIndex(e.rel, attrs, b)
	e.indexes = append(e.indexes, ix)
	e.support[gi][b] = ix
	return ix
}

// eqOnRHS reports whether t and t2 agree on attribute a for violation
// purposes: same equivalence class, or SQL-equal stored values (either
// null, or equal constants). Class identity matters because two merged-
// but-unset classes hold possibly different stored values yet are already
// destined for one target (§4.1).
func (e *engine) eqOnRHS(t, t2 *relation.Tuple, a int) bool {
	// Stored values first: most bucket neighbours simply agree, and the
	// class lookup is the dearer test.
	v, v2 := t.IDAt(a), t2.IDAt(a)
	return v == v2 || v == relation.NullID || v2 == relation.NullID ||
		e.classes.SameClass(e.key(t, a), e.key(t2, a))
}

// violation is one live violation found for a tuple within a group.
type violation struct {
	gi      int // the rule's group
	t       *relation.Tuple
	rule    *cfd.Normal
	partner *relation.Tuple // nil for constant-RHS (case 1) violations
}

// dict returns the working relation's interning dictionary.
func (e *engine) dict() *relation.Dict { return e.rel.Dict() }

// findViolation returns the first live violation of tuple t within group
// gi, or ok=false if t currently satisfies every rule of the group.
// Rules are visited in the group's (deterministic) order; every
// variable-RHS rule of the group shares t's bucket, so they share its
// partner (see partner).
func (e *engine) findViolation(gi int, t *relation.Tuple) (violation, bool) {
	g := e.groups[gi]
	rules := g.MatchingRules(t)
	if len(rules) == 0 {
		return violation{}, false
	}
	a := g.A()
	searched := false
	var partner *relation.Tuple
	for _, n := range rules {
		if n.ConstantRHS() {
			if cfd.RHSViolates(t.Vals[a], n.TpA) {
				return violation{gi: gi, t: t, rule: n}, true
			}
			continue
		}
		if t.Vals[a].Null {
			continue // null agrees with everything (case 2.3)
		}
		if !searched {
			partner, searched = e.partner(g, t), true
		}
		if partner != nil {
			return violation{gi: gi, t: t, rule: n, partner: partner}, true
		}
	}
	return violation{}, false
}

// partner returns the canonical partner of t, whose A-value is not null,
// in group g: the disagreeing tuple of smallest id. The bucket's tally of
// A answers first whether any stored A-value differs from t's; when none
// does there is no partner, since class identity only ever adds equality.
// Otherwise the bucket lists its members in ascending id order, so the
// first one eqOnRHS separates from t is the smallest — never an artefact
// of the order earlier writes left behind.
func (e *engine) partner(g cfd.Group, t *relation.Tuple) *relation.Tuple {
	ids, c := g.Bucket(t)
	a := g.A()
	if c.NonNull() == c.Count(t.IDAt(a)) {
		return nil
	}
	for _, id := range ids {
		e.work.walked++
		if id == t.ID {
			continue
		}
		if t2 := e.rel.Tuple(id); !e.eqOnRHS(t, t2, a) {
			return t2
		}
	}
	return nil
}

// classCost returns the paper's Cost(t, B, v): the weighted cost of
// moving every member of eq(t, B) to value v (Fig. 5). v carries its id,
// so the distance memo is reached without a dictionary lookup per member.
func (e *engine) classCost(k eqclass.Key, v relation.IDValue) float64 {
	var sum float64
	for _, m := range e.classes.Members(k) {
		t, a := e.cell(m)
		sum += e.scorer.ChangeFromInterned(e.dict(), t, a, t.At(a), v)
	}
	return sum
}

// classWeight returns the sum of attribute weights across eq(t, B),
// the tie-breaker for the null fallback in case 1.2 (§4.1).
func (e *engine) classWeight(k eqclass.Key) float64 {
	var sum float64
	for _, m := range e.classes.Members(k) {
		t, a := e.cell(m)
		sum += t.Weight(a)
	}
	return sum
}
