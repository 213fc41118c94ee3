// Package increpair implements the paper's incremental repairing module:
// algorithm INCREPAIR (§5, Fig. 6) with procedure TUPLERESOLVE (Fig. 7).
// Given a clean database D and a batch ΔD of tuples to insert, it repairs
// the tuples of ΔD one at a time — in one of three orderings (§5.2) — so
// that D ⊕ ΔDRepr |= Σ, never touching the clean D. Deletions never
// introduce CFD violations, so only insertions need repair (§3.3).
//
// The local repairing problem solved by TUPLERESOLVE is NP-complete even
// for standard FDs (Theorem 5.2), so the procedure is greedy: it covers
// attr(R) by repeatedly choosing the best set C of at most k attributes
// and values v̂ minimizing costfix(C, v̂) = cost(t, t[C/v̂]) · vio(t[C/v̂])
// among candidates consistent with the CFDs already decidable (Σ(C ∪ C̄)).
//
// Section 5.3's observation — extract the violation-free tuples of a
// dirty database and treat the rest as ΔD — turns INCREPAIR into a batch
// cleaner; Repair implements it.
//
// Every entry point runs against exactly one delta-maintained violation
// store (cfd.VioStore) for the whole run: detection state is computed
// once and then maintained under the engine's own inserts and deletes
// through the relation's mutation journal, so per-tuple work is O(|Δ|),
// never O(|D|). Session exposes this engine as a long-lived streaming
// cleaner: open it over D once, push ΔD batches with ApplyDelta, and the
// maintained state carries over from batch to batch.
package increpair

import (
	"fmt"
	"sort"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cost"
	"cfdclean/internal/relation"
	"cfdclean/internal/strdist"
)

// Ordering selects the tuple-processing order of §5.2.
type Ordering int

const (
	// Linear processes ΔD in the given order (L-INCREPAIR): no extra
	// cost, no quality help.
	Linear Ordering = iota
	// ByViolations processes tuples in increasing vio(t) (V-INCREPAIR):
	// likely-correct tuples enter the repair first and inform the
	// cleaning of less accurate ones.
	ByViolations
	// ByWeight processes tuples in decreasing total weight wt(t)
	// (W-INCREPAIR): trusted tuples first.
	ByWeight
)

func (o Ordering) String() string {
	switch o {
	case Linear:
		return "L-IncRepair"
	case ByViolations:
		return "V-IncRepair"
	case ByWeight:
		return "W-IncRepair"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// Options configures INCREPAIR.
type Options struct {
	// CostModel scores value changes; nil means the paper default.
	CostModel *cost.Model
	// K is the attribute-subset size of TUPLERESOLVE; the paper reports
	// good results for k = 1, 2 (§5.1). Default 2.
	K int
	// Ordering is the ΔD processing order. Default Linear.
	Ordering Ordering
	// NearestK is how many similar active-domain values the cost-based
	// index contributes per attribute (§5.2). Default 4.
	NearestK int
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.CostModel == nil {
		out.CostModel = cost.Default()
	}
	if out.K <= 0 {
		out.K = 2
	}
	if out.NearestK <= 0 {
		out.NearestK = 4
	}
	return out
}

// Result reports a completed incremental repair (one run, or one Session
// batch).
type Result struct {
	// Repair is D ⊕ ΔDRepr: the clean database with the repaired tuples
	// inserted. Input relations and tuples are never modified.
	Repair *relation.Relation
	// Inserted holds the repaired versions of the ΔD tuples in
	// processing order; Originals the corresponding inputs.
	Inserted  []*relation.Tuple
	Originals []*relation.Tuple
	// Cost is cost(ΔDRepr, ΔD) (§3.3).
	Cost float64
	// Changes counts modified attribute values across ΔD.
	Changes int
}

// engine holds the state of one INCREPAIR run or Session. It is built
// around exactly one violation store: all detection questions — the
// clean check, dirty-tuple extraction, V-ordering, candidate probing —
// are answered from (or through) the store's maintained state.
type engine struct {
	repr  *relation.Relation
	store *cfd.VioStore
	det   *cfd.Detector
	model *cost.Model
	opts  Options

	groups []groupInfo
	arity  int

	// rs is the scratch of TUPLERESOLVE's subset evaluation.
	rs resolveScratch

	// The state of one round of TUPLERESOLVE's greedy cover, in buffers
	// reused from round to round: cur[i] is the violation count of group i
	// with the trial tuple as it stands and violated the masks of those
	// above zero (countGroups); attrs the contested attributes and subsets
	// their k-subsets laid end to end (tupleResolve); cands[a] the
	// candidates of attribute a (bestFix); off and one the single-attribute
	// violation counts (fillTable).
	cur      []int
	violated []uint64
	attrs    []int
	subsets  []int
	cands    [][]relation.IDValue
	off      []int32
	one      []int32

	// dl, byBound and hits are the scratch of nearest: the prepared DL
	// probe, the domain values filed by their profile's bound (one list
	// per bound 1 … maxRadius; those at 0 are measured at once, so
	// byBound[0] stays empty) and the best values found so far, its
	// result; profiles is the profile of every value id nearest has met.
	dl       strdist.DLProbe
	byBound  [maxRadius + 1][]relation.IDValue
	hits     []nearHit
	profiles []strdist.Profile

	// stats backs Session.IndexStats.
	stats IndexStats
}

// IndexStats are the work counters of a session's indices (§5.2) — the
// similarity search over the active domains and the LHS indices behind
// vio(t) — cumulative since the session opened. They ride beside the
// session's state: no snapshot, listing or log carries them.
type IndexStats struct {
	// Nearest counts the similarity queries, each one pass over an active
	// domain.
	Nearest int
	// Visited counts the domain values a query's profile bound was
	// checked against: the sum of |adom(a)| over the Nearest queries, so it
	// repeats exactly from run to run.
	Visited int
	// Measured counts the kernel calls the queries made: one per value
	// whose bound still let it into the result as it stood — below the
	// k-th best distance, or equal to it with a value that sorts first —
	// so at most Visited.
	Measured int
	// Rounds counts the rounds of TUPLERESOLVE's greedy cover over dirty
	// arrivals, FreePins those decided from the attribute masks alone, with
	// no candidate looked up and no subset enumerated.
	Rounds   int
	FreePins int
	// VioProbes counts TUPLERESOLVE's per-group vio(t) probes of the LHS
	// indices (Group.VioCount calls).
	VioProbes int
	// BucketRescans counts the LHS buckets the violation store recounted
	// from their tallies under inserts, deletes and updates, one per
	// variable-RHS group; no member is visited. An arrival inserted as its
	// first count found it, violating nothing, adds none: its buckets are
	// not recounted at all.
	BucketRescans int
}

// indexStats assembles the counters; callers hold the session lock.
func (e *engine) indexStats() IndexStats {
	out := e.stats
	out.BucketRescans = e.store.Rescans()
	return out
}

type groupInfo struct {
	g    cfd.Group
	mask uint64 // attribute-set bitmask of X ∪ {A}
}

// newEngine builds the engine over repr, which it takes ownership of
// (callers clone their input first). Exactly one detector/store is
// constructed here; nothing downstream builds another.
func newEngine(repr *relation.Relation, sigma []*cfd.Normal, o Options) (*engine, error) {
	if _, err := cfd.Satisfiable(sigma); err != nil {
		return nil, fmt.Errorf("increpair: %w", err)
	}
	if repr.Schema().Arity() > 64 {
		return nil, fmt.Errorf("increpair: schemas beyond 64 attributes are not supported")
	}
	store := cfd.NewVioStore(repr, sigma)
	e := &engine{
		repr:  repr,
		store: store,
		det:   store.Detector(),
		model: o.CostModel,
		opts:  o,
		rs:    resolveScratch{sc: o.CostModel.Scratch()},
		arity: repr.Schema().Arity(),
	}
	for _, g := range e.det.Groups() {
		var m uint64
		for _, a := range g.X() {
			m |= 1 << uint(a)
		}
		m |= 1 << uint(g.A())
		e.groups = append(e.groups, groupInfo{g: g, mask: m})
	}
	e.cands = make([][]relation.IDValue, e.arity)
	e.off = make([]int32, len(e.groups)*e.arity)
	return e, nil
}

// close detaches the violation store from the working relation, so the
// returned repair can be mutated by the caller without maintenance cost.
func (e *engine) close() {
	e.store.Close()
}

// insertBatch repairs the tuples of delta one at a time (in the
// configured ordering) and inserts them into Repr; the violation store
// maintains itself under each insert. This is the INCREPAIR main loop
// (Fig. 6), shared by Incremental, Repair and Session.ApplyDelta.
func (e *engine) insertBatch(delta []*relation.Tuple) (*Result, error) {
	for _, t := range delta {
		if len(t.Vals) != e.arity {
			return nil, fmt.Errorf("increpair: delta tuple %d has arity %d, want %d", t.ID, len(t.Vals), e.arity)
		}
	}
	ordered := e.orderDelta(delta)
	res := &Result{Repair: e.repr}
	for _, t := range ordered {
		rt := e.tupleResolve(t)
		if err := e.repr.Insert(rt); err != nil {
			return nil, fmt.Errorf("increpair: inserting repaired tuple: %w", err)
		}
		c, err := e.model.Tuple(t, rt)
		if err != nil {
			return nil, err
		}
		res.Cost += c
		for a := range t.Vals {
			if !relation.StrictEq(t.Vals[a], rt.Vals[a]) {
				res.Changes++
			}
		}
		res.Inserted = append(res.Inserted, rt)
		res.Originals = append(res.Originals, t)
	}
	return res, nil
}

// Incremental runs INCREPAIR: repairs each tuple of delta against d ∪
// (already repaired tuples) and returns the combined repair. d must
// satisfy sigma; one that does not is refused with an error.
func Incremental(d *relation.Relation, delta []*relation.Tuple, sigma []*cfd.Normal, opts *Options) (*Result, error) {
	o := opts.withDefaults()
	e, err := newEngine(d.Clone(), sigma, o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if !e.store.Satisfied() {
		return nil, fmt.Errorf("increpair: input database does not satisfy sigma; use Repair for dirty databases")
	}
	return e.insertBatch(delta)
}

// Repair cleans a dirty database with INCREPAIR per §5.3: the tuples
// violating no constraint form the clean core D; the rest are re-inserted
// as ΔD, one repaired tuple at a time. (Finding a maximum consistent
// subset is NP-hard — Proposition 5.4 — but the violation-free subset is
// computable by detection alone and is large at realistic error rates.)
//
// One working clone, one violation store: the dirty tuples are read off
// the store's dirty buckets (VioStore.VioAll), their deletion streams
// through the mutation journal (draining the store to zero), and the same
// store then serves the re-insertion loop.
func Repair(d *relation.Relation, sigma []*cfd.Normal, opts *Options) (*Result, error) {
	o := opts.withDefaults()
	e, err := newEngine(d.Clone(), sigma, o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	delta := e.extractDirty()
	return e.insertBatch(delta)
}

// extractDirty removes every violating tuple from Repr and returns their
// clones as the ΔD batch, per §5.3. Deletions happen in sorted id order:
// the repair content does not depend on it, but Delete compacts by
// swapping, so a fixed order keeps the physical row order of the result —
// and hence its serialized form — reproducible run to run.
func (e *engine) extractDirty() []*relation.Tuple {
	dirty := e.store.VioAll()
	ids := make([]relation.TupleID, 0, len(dirty))
	for id := range dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	delta := make([]*relation.Tuple, 0, len(ids))
	for _, id := range ids {
		t := e.repr.Tuple(id)
		if t == nil {
			continue
		}
		delta = append(delta, t.Clone())
		e.repr.Delete(id)
	}
	return delta
}

// orderDelta applies the §5.2 ordering to the delta batch. The
// ByViolations pass ranks ΔD with apply/undo probes against the
// violation store: the delta tuples are inserted into Repr (the journal
// maintains the store in O(|Δ|)), vio(t) is probed against the
// maintained indexes, and the tuples are deleted again, restoring the store — and
// the id sequence — to their prior state. No database clone, no second
// detector.
func (e *engine) orderDelta(delta []*relation.Tuple) []*relation.Tuple {
	out := append([]*relation.Tuple(nil), delta...)
	switch e.opts.Ordering {
	case ByViolations:
		// vio(t) is counted against D ⊕ ΔD (§5.2), so all probes are
		// applied before any count is read.
		mark := e.repr.NextID()
		scratch := make([]*relation.Tuple, len(out))
		for i, t := range out {
			c := t.Clone()
			c.ID = 0
			e.repr.MustInsert(c)
			scratch[i] = c
		}
		vio := make([]int, len(out))
		for i, c := range scratch {
			vio[i] = e.store.VioCount(c.ID)
		}
		for i := len(scratch) - 1; i >= 0; i-- {
			e.repr.Delete(scratch[i].ID)
		}
		e.repr.RestoreNextID(mark)
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return vio[idx[i]] < vio[idx[j]] })
		reordered := make([]*relation.Tuple, len(out))
		for pos, i := range idx {
			reordered[pos] = out[i]
		}
		out = reordered
	case ByWeight:
		sort.SliceStable(out, func(i, j int) bool { return out[i].TotalWeight() > out[j].TotalWeight() })
	}
	return out
}
