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

	"cfdclean/internal/relation"
	"cfdclean/internal/strdist"
)

// Model carries the distance metric; the zero value is not usable, call
// Default or New. A Model is immutable, so any number of goroutines may
// share one; the repair loops, which re-score the same (stored value,
// candidate) pairs over and over, score through a Scratch each.
type Model struct {
	metric strdist.Metric
}

// Default returns a model with the paper's DL metric.
func Default() *Model { return New(strdist.DL) }

// New returns a model with a custom metric (§3.2 remark 2). The metric must
// keep strdist.Metric's contract, a positive distance between distinct
// strings included: a repair that changes a value of positive weight then
// costs more than one that changes nothing, which TUPLERESOLVE relies on.
func New(m strdist.Metric) *Model {
	return &Model{metric: m}
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

// scratchCap bounds a Scratch's memo; beyond it, distances are computed
// without caching rather than growing memory unboundedly.
const scratchCap = 1 << 20

// Scratch is one engine's view of a Model: a memo of normalized distances
// between interned value pairs under a fixed-width integer key, so each
// string-distance computation is paid for once. The keys are ids relative
// to one dictionary, bound on first use: ids from another dictionary name
// different strings, so a call against one bypasses the memo instead of
// returning a stale distance. (A relation and its clones share one id
// space only until they diverge, so pointer identity is the rule.) A
// Scratch must not be shared between goroutines; the Model underneath
// may be.
type Scratch struct {
	m    *Model
	memo map[uint64]float64
	dict *relation.Dict
}

// Scratch returns a fresh scratch over m.
func (m *Model) Scratch() *Scratch {
	return &Scratch{m: m, memo: make(map[uint64]float64)}
}

// distIDs is Model.Dist memoized under the interned-pair key (ia, ib),
// valid relative to dict. Either id being InvalidID (value absent from the
// dictionary), or dict differing from the dictionary the memo is bound
// to, bypasses the memo.
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
	if d, ok := s.memo[key]; ok {
		return d
	}
	d := s.m.Dist(va, vb)
	if len(s.memo) < scratchCap {
		s.memo[key] = d
	}
	return d
}

// ChangeFromInterned is Model.ChangeFrom through the memo, keyed by the
// ids old and vp carry relative to dict — the dictionary itself is not
// consulted.
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
