// Package cost implements the paper's cost model (§3.2): the cost of
// changing attribute t[A] from v to v' is
//
//	cost(v, v') = w(t, A) · dis(v, v') / max(|v|, |v'|)
//
// where w(t, A) ∈ [0,1] is the user's confidence in the accuracy of the
// original value and dis is the Damerau–Levenshtein metric by default.
// The model extends pointwise to tuples and repairs, and the package also
// provides dif — the attribute-level difference count used to assess
// repair accuracy (§1, §3.3).
package cost

import (
	"fmt"
	"sync"

	"cfdclean/internal/relation"
	"cfdclean/internal/strdist"
)

// memoCap bounds the interned-pair distance memo; beyond it, distances are
// computed without caching rather than growing memory unboundedly.
const memoCap = 1 << 20

// Model carries the distance metric; the zero value is not usable, call
// Default or New. Models memoize normalized distances between interned
// value pairs under a fixed-width integer key, so the repair loops — which
// re-score the same (stored value, candidate) pairs over and over — pay
// for each string-distance computation once. The memo is safe for
// concurrent use; the parallel candidate evaluation of INCREPAIR shares
// one model across workers.
type Model struct {
	metric strdist.Metric

	mu   sync.Mutex
	memo map[uint64]float64
	// dict is the dictionary the memo's id keys are relative to, bound on
	// first interned call. Ids from other dictionaries name different
	// strings, so calls against a different dict bypass the memo instead
	// of returning a stale distance. (A relation and its clones share one
	// id space only until they diverge, so pointer identity is the rule.)
	dict *relation.Dict
}

// Default returns a model with the paper's DL metric.
func Default() *Model { return New(strdist.DL) }

// New returns a model with a custom metric (§3.2 remark 2). The metric must
// keep strdist.Metric's contract, a positive distance between distinct
// strings included: a repair that changes a value of positive weight then
// costs more than one that changes nothing, which TUPLERESOLVE relies on.
func New(m strdist.Metric) *Model {
	return &Model{metric: m, memo: make(map[uint64]float64)}
}

// Dist returns the normalized distance dis(v,v')/max(|v|,|v'|) between two
// values. Changing to or from null costs the maximum distance 1 (the value
// is entirely replaced by "unknown"), and null-to-null costs 0.
func (m *Model) Dist(v, vp relation.Value) float64 {
	if v.Null && vp.Null {
		return 0
	}
	if v.Null || vp.Null {
		return 1
	}
	return strdist.Normalized(m.metric, v.Str, vp.Str)
}

// Change returns cost(v, v') for attribute a of tuple t: the weighted
// normalized distance from t's current value v to v'. The more accurate
// the original value (higher weight) and the more distant the new value,
// the higher the cost.
func (m *Model) Change(t *relation.Tuple, a int, vp relation.Value) float64 {
	return t.Weight(a) * m.Dist(t.Vals[a], vp)
}

// ChangeFrom returns the cost of changing attribute a of t from an
// explicit old value (used when t's stored value has already been
// overwritten during repair bookkeeping).
func (m *Model) ChangeFrom(t *relation.Tuple, a int, old, vp relation.Value) float64 {
	return t.Weight(a) * m.Dist(old, vp)
}

// distIDs is Dist memoized under the interned-pair key (ia, ib), valid
// relative to dict. Either id being InvalidID (value absent from the
// dictionary), or dict differing from the dictionary the memo is bound
// to, bypasses the memo.
func (m *Model) distIDs(dict *relation.Dict, ia, ib relation.ValueID, va, vb relation.Value) float64 {
	if ia == relation.InvalidID || ib == relation.InvalidID || m.memo == nil || dict == nil {
		return m.Dist(va, vb)
	}
	key := relation.PairKey(ia, ib)
	m.mu.Lock()
	if m.dict == nil {
		m.dict = dict
	}
	bound := m.dict == dict
	d, ok := m.memo[key]
	m.mu.Unlock()
	if !bound {
		return m.Dist(va, vb)
	}
	if ok {
		return d
	}
	d = m.Dist(va, vb)
	m.mu.Lock()
	if len(m.memo) < memoCap {
		m.memo[key] = d
	}
	m.mu.Unlock()
	return d
}

// ChangeInterned is Change with the distance memoized by interned ids:
// t's stored id (when t is relation-owned) paired with vp's id in dict.
func (m *Model) ChangeInterned(dict *relation.Dict, t *relation.Tuple, a int, vp relation.Value) float64 {
	w := t.Weight(a)
	if w == 0 {
		return 0
	}
	return w * m.distIDs(dict, t.IDAt(a), dict.LookupValue(vp), t.Vals[a], vp)
}

// scratchCap bounds each per-worker local memo independently of the
// shared one.
const scratchCap = 1 << 18

// Scratch is a per-worker view of a Model: a lock-free local distance
// memo in front of the shared (mutex-guarded) one. Repair workers score
// the same (stored value, candidate) pairs over and over within their
// own partition of the work, so after the first miss every repeat hit
// is an uncontended map read. The miss path goes through Model.distIDs,
// which consults and feeds the shared memo only when the caller's
// dictionary is the one the model is bound to: INCREPAIR's candidate
// workers all score against one relation and genuinely share, while the
// component-parallel batch workers each own a cloned relation (own
// Dict), so at most one of them matches the binding and the rest warm
// purely local memos — correct either way, shared only when pointer-
// identical dictionaries make it sound. A Scratch must not be shared
// between goroutines; the Model underneath may be.
type Scratch struct {
	m     *Model
	local map[uint64]float64
	// dict is the dictionary the local keys are relative to, bound on
	// first use exactly like the shared memo's binding.
	dict *relation.Dict
}

// Scratch returns a fresh per-worker scratch over m.
func (m *Model) Scratch() *Scratch {
	return &Scratch{m: m, local: make(map[uint64]float64)}
}

// Model returns the shared model underneath.
func (s *Scratch) Model() *Model { return s.m }

func (s *Scratch) distIDs(dict *relation.Dict, ia, ib relation.ValueID, va, vb relation.Value) float64 {
	if ia == relation.InvalidID || ib == relation.InvalidID || dict == nil {
		return s.m.Dist(va, vb)
	}
	if s.dict == nil {
		s.dict = dict
	}
	if s.dict != dict {
		return s.m.Dist(va, vb)
	}
	key := relation.PairKey(ia, ib)
	if d, ok := s.local[key]; ok {
		return d
	}
	d := s.m.distIDs(dict, ia, ib, va, vb)
	if len(s.local) < scratchCap {
		s.local[key] = d
	}
	return d
}

// ChangeFromInterned is Model.ChangeFrom through the memos, keyed by the
// ids old and vp carry relative to dict — the dictionary itself is not
// consulted, so TUPLERESOLVE's candidate loop can call this from several
// workers without sharing a lock.
func (s *Scratch) ChangeFromInterned(dict *relation.Dict, t *relation.Tuple, a int, old, vp relation.IDValue) float64 {
	w := t.Weight(a)
	if w == 0 {
		return 0
	}
	return w * s.distIDs(dict, old.ID, vp.ID, old.Value, vp.Value)
}

// Tuple returns the cost of changing tuple old into new: the sum of
// cost(old[A], new[A]) over the attributes whose value is modified.
// StrictEq decides modification: replacing a constant by null counts.
func (m *Model) Tuple(old, new *relation.Tuple) (float64, error) {
	if len(old.Vals) != len(new.Vals) {
		return 0, fmt.Errorf("cost: tuples have arity %d and %d", len(old.Vals), len(new.Vals))
	}
	var sum float64
	for a := range old.Vals {
		if !relation.StrictEq(old.Vals[a], new.Vals[a]) {
			sum += m.Change(old, a, new.Vals[a])
		}
	}
	return sum, nil
}

// Repair returns cost(Repr, D): the total cost of modifying the tuples of
// d into the correspondingly-identified tuples of repr. Tuples present in
// only one of the two relations are ignored (repairs preserve tuple ids).
func (m *Model) Repair(repr, d *relation.Relation) (float64, error) {
	var sum float64
	for _, old := range d.Tuples() {
		nt := repr.Tuple(old.ID)
		if nt == nil {
			continue
		}
		c, err := m.Tuple(old, nt)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// Dif counts the attribute-level differences between two relations with
// matching tuple ids — the paper's dif(D1, D2) used in both the accuracy
// bound |dif(Repr, Dopt)|/|Dopt| and the precision/recall computation
// (§7.1). Tuples missing from either side contribute their full arity.
func Dif(d1, d2 *relation.Relation) int {
	n := 0
	for _, t1 := range d1.Tuples() {
		t2 := d2.Tuple(t1.ID)
		if t2 == nil {
			n += len(t1.Vals)
			continue
		}
		for a := range t1.Vals {
			if !relation.StrictEq(t1.Vals[a], t2.Vals[a]) {
				n++
			}
		}
	}
	for _, t2 := range d2.Tuples() {
		if d1.Tuple(t2.ID) == nil {
			n += len(t2.Vals)
		}
	}
	return n
}

// Cells returns the total number of attribute values in d — |D| measured
// at attribute level, the denominator of the accuracy ratio.
func Cells(d *relation.Relation) int {
	return d.Size() * d.Schema().Arity()
}
