package relation

import (
	"fmt"
	"strings"
)

// TupleID identifies a tuple throughout the repair process, even as its
// attribute values change (the paper's "temporary unique tuple id", §3.1).
type TupleID int64

// Tuple is a weighted data tuple. Vals[i] is the value of attribute i;
// W[i] ∈ [0,1] is the confidence weight the user places in the accuracy
// of that attribute (§3.2). When no weight information is available the
// algorithms treat every weight as 1 (§3.2 remark 1); a nil W means
// exactly that.
type Tuple struct {
	ID   TupleID
	Vals []Value
	W    []float64

	// ids holds the interned ValueID of each attribute value, parallel to
	// Vals. It is owned by the Relation the tuple lives in: Insert fills
	// it against the relation's Dict and Set keeps it in sync. A nil ids
	// marks a free-standing tuple (built by NewTuple/Clone); such tuples
	// take the value-based slow paths. A probe (see Probe) carries ids
	// without being owned: they are looked up in probed, not interned, and
	// only SetAt may change its values. Insert into the relation owning
	// probed keeps them.
	ids    []ValueID
	probed *Dict
}

// NewTuple builds a tuple with unit weights from plain strings.
func NewTuple(id TupleID, vals ...string) *Tuple {
	vs := make([]Value, len(vals))
	for i, s := range vals {
		vs[i] = S(s)
	}
	return &Tuple{ID: id, Vals: vs}
}

// Clone deep-copies the tuple.
func (t *Tuple) Clone() *Tuple {
	c := &Tuple{ID: t.ID, Vals: append([]Value(nil), t.Vals...)}
	if t.W != nil {
		c.W = append([]float64(nil), t.W...)
	}
	return c
}

// Probe returns a free-standing copy of t that carries ids resolved against
// dict without interning — a trial tuple for "what if t held these values"
// questions against the relation owning dict. A constant dict has never
// seen gets InvalidID: it equals no stored value and matches no pattern
// constant, which is all there is to know about it. Change a probe's values
// with SetAt only. Insert into the relation owning dict adopts the probe's
// ids and interns only its unseen constants; any other relation re-interns
// it like any tuple.
func (t *Tuple) Probe(dict *Dict) *Tuple {
	c := t.Clone()
	c.probed = dict
	c.ids = make([]ValueID, len(c.Vals))
	for a, v := range c.Vals {
		c.ids[a] = dict.LookupValue(v)
	}
	return c
}

// At returns attribute a with its id; t must carry ids.
func (t *Tuple) At(a int) IDValue { return IDValue{Value: t.Vals[a], ID: t.ids[a]} }

// SetAt overwrites attribute a of a probe with v, value and id together.
// (A relation-owned tuple changes through Relation.Set, which also keeps
// the active domain and the journal.)
func (t *Tuple) SetAt(a int, v IDValue) {
	t.Vals[a] = v.Value
	t.ids[a] = v.ID
}

// Weight returns the confidence weight of attribute i, defaulting to 1
// when no weight vector is attached.
func (t *Tuple) Weight(i int) float64 {
	if t.W == nil {
		return 1
	}
	return t.W[i]
}

// SetWeight records the confidence weight of attribute i, materializing a
// unit-weight vector on first use. It panics on a weight outside [0, 1]
// (§3.2), NaN included.
func (t *Tuple) SetWeight(i int, w float64) {
	if !(0 <= w && w <= 1) {
		panic(fmt.Sprintf("relation: weight %v outside [0,1]", w))
	}
	if t.W == nil {
		t.W = make([]float64, len(t.Vals))
		for j := range t.W {
			t.W[j] = 1
		}
	}
	t.W[i] = w
}

// TotalWeight returns the sum of the attribute weights of t; the paper's
// wt(t), used by W-INCREPAIR to order tuples by trustworthiness (§5.2).
func (t *Tuple) TotalWeight() float64 {
	if t.W == nil {
		return float64(len(t.Vals))
	}
	var s float64
	for _, w := range t.W {
		s += w
	}
	return s
}

// Interned reports whether t carries value ids in sync with Vals: it is
// owned by a Relation, or it is a probe.
func (t *Tuple) Interned() bool { return t.ids != nil }

// IDAt returns the interned id of attribute a, or InvalidID for a
// free-standing tuple.
func (t *Tuple) IDAt(a int) ValueID {
	if t.ids == nil {
		return InvalidID
	}
	return t.ids[a]
}

// ProjectIDs appends the interned ids of t at attrs to dst and returns it.
// The tuple must be interned.
func (t *Tuple) ProjectIDs(dst []ValueID, attrs []int) []ValueID {
	for _, a := range attrs {
		dst = append(dst, t.ids[a])
	}
	return dst
}

// HasNullOn reports whether any of the given attributes of t is null.
func (t *Tuple) HasNullOn(attrs []int) bool {
	for _, a := range attrs {
		if t.Vals[a].Null {
			return true
		}
	}
	return false
}

// String renders the tuple for debugging.
func (t *Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("t%d(%s)", t.ID, strings.Join(parts, ", "))
}
