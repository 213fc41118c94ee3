package relation

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Relation is an in-memory instance of a single-relation schema. It owns
// its tuples; mutations go through the Relation so that active-domain and
// index bookkeeping stays consistent.
type Relation struct {
	schema *Schema
	tuples []*Tuple
	byID   map[TupleID]int
	nextID TupleID
	dict   *Dict

	// adom[a] maps the interned id of each non-null constant appearing in
	// attribute a to the number of tuples currently carrying it.
	// Maintained incrementally.
	adom []map[ValueID]int

	// subs are the mutation-journal subscribers (see journal.go); notified
	// synchronously after each insert, delete and update. version counts
	// every mutation (see Version).
	subs    []subscriber
	nextSub int
	version uint64

	// Pinned snapshot views (see view.go). gens holds the active view
	// generations; activeGens mirrors len(gens) so mutators can check for
	// pins without taking viewMu. viewMu orders page preservation and
	// slice writes against readers' page copy-outs.
	viewMu     sync.RWMutex
	gens       []*viewGen
	activeGens atomic.Int32
}

// New creates an empty relation instance of schema s.
func New(s *Schema) *Relation {
	adom := make([]map[ValueID]int, s.Arity())
	for i := range adom {
		adom[i] = make(map[ValueID]int)
	}
	return &Relation{
		schema: s,
		byID:   make(map[TupleID]int),
		nextID: 1,
		dict:   NewDict(),
		adom:   adom,
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Dict returns the relation's interning dictionary. The dictionary only
// grows; ids handed out stay valid for the relation's lifetime.
func (r *Relation) Dict() *Dict { return r.dict }

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.tuples) }

// Tuples returns the live tuple slice in insertion order. Callers must not
// modify attribute values directly; use Set so bookkeeping stays correct.
func (r *Relation) Tuples() []*Tuple { return r.tuples }

// Tuple returns the tuple with the given id, or nil.
func (r *Relation) Tuple(id TupleID) *Tuple {
	i, ok := r.byID[id]
	if !ok {
		return nil
	}
	return r.tuples[i]
}

// Insert adds t to the relation. If t.ID is zero a fresh id is assigned.
// The tuple must have the schema's arity and (if present) a weight vector
// of the same length.
func (r *Relation) Insert(t *Tuple) error {
	if len(t.Vals) != r.schema.Arity() {
		return fmt.Errorf("relation %s: tuple has %d values, want %d", r.schema.Name(), len(t.Vals), r.schema.Arity())
	}
	if t.W != nil && len(t.W) != len(t.Vals) {
		return fmt.Errorf("relation %s: tuple has %d weights, want %d", r.schema.Name(), len(t.W), len(t.Vals))
	}
	if t.ID == 0 {
		t.ID = r.nextID
	}
	if _, dup := r.byID[t.ID]; dup {
		return fmt.Errorf("relation %s: duplicate tuple id %d", r.schema.Name(), t.ID)
	}
	if t.ID >= r.nextID {
		r.nextID = t.ID + 1
	}
	r.byID[t.ID] = len(r.tuples)
	if r.activeGens.Load() != 0 {
		r.cowAppend(t)
	} else {
		r.tuples = append(r.tuples, t)
	}
	// (Re-)intern the tuple's values against this relation's dictionary;
	// ids from a previous owner are meaningless here. The stored Value is
	// canonicalized to the dictionary's copy of the string, so a constant
	// appearing in a million cells pins one backing array, not a million
	// parser-owned copies.
	t.ids = make([]ValueID, len(t.Vals))
	for a, v := range t.Vals {
		id := r.dict.Intern(v)
		t.ids[a] = id
		if id != NullID {
			t.Vals[a] = Value{Str: r.dict.Str(id)}
			r.adom[a][id]++
		} else {
			t.Vals[a] = NullValue
		}
	}
	r.version++
	if len(r.subs) > 0 {
		r.notify(Delta{Kind: DeltaInsert, T: t})
	}
	return nil
}

// MustInsert is Insert that panics on error; for tests and generators.
func (r *Relation) MustInsert(t *Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// InsertRow builds a unit-weight tuple from strings and inserts it.
func (r *Relation) InsertRow(vals ...string) (*Tuple, error) {
	t := NewTuple(0, vals...)
	if err := r.Insert(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Delete removes the tuple with the given id. Deletions never introduce
// CFD violations (§3.3), so no constraint bookkeeping is required here.
func (r *Relation) Delete(id TupleID) bool {
	i, ok := r.byID[id]
	if !ok {
		return false
	}
	t := r.tuples[i]
	for a, id := range t.ids {
		if id != NullID {
			r.dropAdom(a, id)
		}
	}
	if r.activeGens.Load() != 0 {
		r.cowDelete(i)
	} else {
		last := len(r.tuples) - 1
		r.tuples[i] = r.tuples[last]
		r.byID[r.tuples[i].ID] = i
		r.tuples = r.tuples[:last]
	}
	delete(r.byID, id)
	r.version++
	if len(r.subs) > 0 {
		r.notify(Delta{Kind: DeltaDelete, T: t})
	}
	return true
}

// Set changes attribute a of tuple id to v, updating the active domain.
// It returns the previous value.
func (r *Relation) Set(id TupleID, a int, v Value) (Value, error) {
	i, ok := r.byID[id]
	if !ok {
		return Value{}, fmt.Errorf("relation %s: no tuple with id %d", r.schema.Name(), id)
	}
	t := r.tuples[i]
	old := t.Vals[a]
	if StrictEq(old, v) {
		return old, nil
	}
	oldID := t.ids[a]
	if oldID != NullID {
		r.dropAdom(a, oldID)
	}
	vid := r.dict.Intern(v)
	if vid != NullID {
		// Canonicalize to the dictionary's backing string (see Insert).
		v = Value{Str: r.dict.Str(vid)}
		r.adom[a][vid]++
	} else {
		v = NullValue
	}
	if r.activeGens.Load() != 0 {
		// Tuples reachable from pinned views are immutable: update via
		// clone-and-swap, leaving the shared object untouched.
		t = r.cowSet(i, a, v, vid)
	} else {
		t.Vals[a] = v
		t.ids[a] = vid
	}
	r.version++
	if len(r.subs) > 0 {
		r.notify(Delta{Kind: DeltaUpdate, T: t, Attr: a, Old: old, OldID: oldID})
	}
	return old, nil
}

func (r *Relation) dropAdom(a int, id ValueID) {
	if n := r.adom[a][id]; n <= 1 {
		delete(r.adom[a], id)
	} else {
		r.adom[a][id] = n - 1
	}
}

// ActiveDomain returns the sorted distinct non-null constants currently
// appearing in attribute a — the paper's adom(A, D) (§2). Repairs draw
// replacement values from the active domain or null; no values are
// invented (§3.1).
func (r *Relation) ActiveDomain(a int) []string {
	out := make([]string, 0, len(r.adom[a]))
	for id := range r.adom[a] {
		out = append(out, r.dict.Str(id))
	}
	sort.Strings(out)
	return out
}

// ActiveDomainSize returns |adom(a, D)| without materializing it.
func (r *Relation) ActiveDomainSize(a int) int { return len(r.adom[a]) }

// DomainCount returns the number of tuples whose attribute a currently
// equals constant s.
func (r *Relation) DomainCount(a int, s string) int {
	id, ok := r.dict.LookupStr(s)
	if !ok {
		return 0
	}
	return r.adom[a][id]
}

// Clone deep-copies the relation, tuples included. The interning
// dictionary is cloned id-preservingly, so value ids remain comparable
// across a relation and its clones — which is also why the copy needs no
// dictionary lookups: every tuple keeps the ids it has. The clone starts
// a journal of its own, as if its tuples had just been inserted in order.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		schema:  r.schema,
		tuples:  make([]*Tuple, len(r.tuples)),
		byID:    make(map[TupleID]int, len(r.tuples)),
		nextID:  1,
		dict:    r.dict.Clone(),
		adom:    make([]map[ValueID]int, len(r.adom)),
		version: uint64(len(r.tuples)),
	}
	for a, m := range r.adom {
		c.adom[a] = maps.Clone(m)
	}
	for i, t := range r.tuples {
		ct := t.Clone()
		ct.ids = append([]ValueID(nil), t.ids...)
		c.tuples[i] = ct
		c.byID[ct.ID] = i
		if ct.ID >= c.nextID {
			c.nextID = ct.ID + 1
		}
	}
	return c
}

// Select returns the tuples satisfying pred, in insertion order.
func (r *Relation) Select(pred func(*Tuple) bool) []*Tuple {
	var out []*Tuple
	for _, t := range r.tuples {
		if pred(t) {
			out = append(out, t)
		}
	}
	return out
}

// GroupBy partitions the tuples by their composite key on attrs. Tuples
// containing null on any of attrs are grouped under their encoded key as
// well (null has a distinct encoding); callers that need the paper's
// pattern-match semantics filter nulls themselves.
func (r *Relation) GroupBy(attrs []int) map[string][]*Tuple {
	groups := make(map[string][]*Tuple)
	for _, t := range r.tuples {
		k := t.KeyOn(attrs)
		groups[k] = append(groups[k], t)
	}
	return groups
}
