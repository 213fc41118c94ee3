package relation

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Relation is an in-memory instance of a single-relation schema. It owns
// its tuples; mutations go through the Relation so that active-domain and
// index bookkeeping stays consistent.
//
// The active domains are placed by value id: home[id] names an attribute
// whose domain holds value id and where the value lies in it, so finding a
// value in its domain is one array read. A value that is already placed
// under one attribute when another takes it goes into the other
// attribute's spill map (see domain). Ids are dense and come from the
// relation's own dictionary only (New makes one, Clone clones it), so the
// table covers at most every id that dictionary handed out, at 8 bytes an
// id; the dictionary never shrinks, and neither does the table.
type Relation struct {
	schema *Schema
	tuples []*Tuple
	// slots[id] is the position + 1 of tuple id in tuples (0: absent);
	// over holds the ids slots does not cover (see cover).
	slots  []int32
	over   map[TupleID]int32
	nextID TupleID
	dict   *Dict

	// adom[a] is the live domain of attribute a, maintained incrementally;
	// home places its values (see domain).
	adom []domain
	home []placement

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

	// stamps[p] is the version of the last write into view page p; only
	// the writer and Pin read it (a view's copy, View.Stamps, tells the
	// page store which pages a flush writes). csvPages caches each page's
	// encoded CSV under the stamp it was encoded at (see View.WriteCSV);
	// csvMu guards it, since concurrent dumps share it.
	stamps   []uint64
	csvMu    sync.Mutex
	csvPages []csvPage
}

// New creates an empty relation instance of schema s.
func New(s *Schema) *Relation {
	return NewWithDict(s, NewDict())
}

// NewWithDict creates an empty relation instance of schema s that takes
// dict as its interning dictionary: a restore whose rows carry ids in a
// dictionary built before the relation (a snapshot image's strings, a
// page store's persisted dictionary) inserts them under those ids. No
// other relation may hold dict.
func NewWithDict(s *Schema, dict *Dict) *Relation {
	return &Relation{
		schema: s,
		nextID: 1,
		dict:   dict,
		adom:   make([]domain, s.Arity()),
	}
}

// domain is the active domain of one attribute: every non-null constant
// some tuple currently carries, with the number of tuples carrying it. The
// values lie densely in a slice, so walking them (EachDomainValue) is a
// scan, and the value whose last occurrence goes is overwritten by the
// last one. A value's place is found through the relation's home table
// when this attribute holds the value's home placement, and through spill
// otherwise: spill stays nil until the attribute takes a value another
// attribute had placed first, which happens only where columns share a
// vocabulary. A value that leaves its home attribute frees the home entry,
// and whichever attribute takes the value next claims it.
type domain struct {
	vals  []domainValue
	spill map[ValueID]int32 // spill[vals[i].id] == i, for values homed elsewhere
}

type domainValue struct {
	str string // the dictionary's copy, so a walk takes no dictionary lock
	id  ValueID
	n   int32 // tuples carrying it, ≥ 1
}

// placement is one home-table entry: attribute attr − 1 holds the value at
// index i of its domain; attr 0 means the value is placed nowhere.
type placement struct {
	attr int32
	i    int32
}

// place returns the index of value id in adom[a].vals.
func (r *Relation) place(a int, id ValueID) (int32, bool) {
	if int(id) < len(r.home) && r.home[id].attr == int32(a)+1 {
		return r.home[id].i, true
	}
	i, ok := r.adom[a].spill[id]
	return i, ok
}

// bump counts one more tuple carrying value id (string str) in attribute
// a. A value new to a takes its home entry when no attribute holds it, and
// a place in a's spill map otherwise.
func (r *Relation) bump(a int, id ValueID, str string) {
	d := &r.adom[a]
	if i, ok := r.place(a, id); ok {
		d.vals[i].n++
		return
	}
	i := int32(len(d.vals))
	d.vals = append(d.vals, domainValue{str: str, id: id, n: 1})
	if n := int(id) + 1; n > len(r.home) {
		// Past len the table was never written, so what Grow exposes is zero.
		r.home = slices.Grow(r.home, n-len(r.home))[:n]
	}
	if r.home[id].attr == 0 {
		r.home[id] = placement{attr: int32(a) + 1, i: i}
		return
	}
	if d.spill == nil {
		d.spill = make(map[ValueID]int32)
	}
	d.spill[id] = i
}

// drop counts one tuple fewer carrying value id in attribute a. When that
// was the value's last occurrence, the last value of the domain moves into
// its place, and the value's placement goes.
func (r *Relation) drop(a int, id ValueID) {
	d := &r.adom[a]
	i, _ := r.place(a, id)
	if d.vals[i].n > 1 {
		d.vals[i].n--
		return
	}
	if last := int32(len(d.vals)) - 1; i < last {
		moved := d.vals[last].id
		d.vals[i] = d.vals[last]
		if r.home[moved].attr == int32(a)+1 {
			r.home[moved].i = i
		} else {
			d.spill[moved] = i
		}
	}
	d.vals[len(d.vals)-1] = domainValue{}
	d.vals = d.vals[:len(d.vals)-1]
	if r.home[id].attr == int32(a)+1 {
		r.home[id] = placement{}
	} else {
		delete(d.spill, id)
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Dict returns the relation's interning dictionary. The dictionary only
// grows; ids handed out stay valid for the relation's lifetime.
func (r *Relation) Dict() *Dict { return r.dict }

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.tuples) }

// Tuples returns the live tuple slice in physical order: inserts append,
// and Delete moves the last tuple into the freed slot, so after a delete
// the order is no longer insertion order. A tuple keeps its position while
// only Set touches the relation. Callers must not modify the slice or
// attribute values directly; use Set so bookkeeping stays correct.
func (r *Relation) Tuples() []*Tuple { return r.tuples }

// Tuple returns the tuple with the given id, or nil.
func (r *Relation) Tuple(id TupleID) *Tuple {
	i, ok := r.Position(id)
	if !ok {
		return nil
	}
	return r.tuples[i]
}

// Position returns the index of tuple id in Tuples; ok is false when no
// tuple has that id.
func (r *Relation) Position(id TupleID) (int, bool) {
	// A negative id converts to a huge one and misses the table.
	if uint64(id) < uint64(len(r.slots)) {
		p := r.slots[id]
		return int(p) - 1, p != 0
	}
	p, ok := r.over[id]
	return int(p), ok
}

// setPos records that tuple id sits at position i.
func (r *Relation) setPos(id TupleID, i int) {
	if uint64(id) < uint64(len(r.slots)) {
		r.slots[id] = int32(i + 1)
		return
	}
	if r.over == nil {
		r.over = make(map[TupleID]int32)
	}
	r.over[id] = int32(i)
}

// clearPos forgets tuple id.
func (r *Relation) clearPos(id TupleID) {
	if uint64(id) < uint64(len(r.slots)) {
		r.slots[id] = 0
		return
	}
	delete(r.over, id)
}

// cover grows the id table so that it covers id, when that keeps it within
// 4·(Size()+1) + 4096 entries: four bytes each, so beyond its first 16 KiB
// the table costs at most 16 bytes a tuple, less than a map entry. An id it
// cannot cover (≤ 0, or too far past the live tuples) stays in the overflow
// map, and each growth moves the overflow ids it now covers into the table.
// The relation's own ids are dense (1, 2, …), so the overflow map only holds
// explicitly chosen ids — and, in a relation whose deletes keep it far
// smaller than its id counter (a long sliding window), the newest ids, which
// then cost a map entry as every id did before the table.
func (r *Relation) cover(id TupleID) {
	if id <= 0 || int64(id) < int64(len(r.slots)) {
		return
	}
	limit := 4*(len(r.tuples)+1) + 4096
	if int64(id) >= int64(limit) {
		return
	}
	n := min(max(int(id)+1, 2*len(r.slots), 64), limit)
	grown := make([]int32, n)
	copy(grown, r.slots)
	r.slots = grown
	for oid, p := range r.over {
		if uint64(oid) < uint64(n) {
			r.slots[oid] = p + 1
			delete(r.over, oid)
		}
	}
	if len(r.over) == 0 {
		r.over = nil
	}
}

// Insert adds t to the relation. If t.ID is zero a fresh id is assigned.
// The tuple must have the schema's arity and (if present) a weight vector
// of the same length with every weight in [0, 1] (§3.2). A probe of this
// relation's dictionary (Tuple.Probe) is taken as it is, ids included;
// any other tuple is interned afresh.
func (r *Relation) Insert(t *Tuple) error {
	if len(t.Vals) != r.schema.Arity() {
		return fmt.Errorf("relation %s: tuple has %d values, want %d", r.schema.Name(), len(t.Vals), r.schema.Arity())
	}
	if t.W != nil && len(t.W) != len(t.Vals) {
		return fmt.Errorf("relation %s: tuple has %d weights, want %d", r.schema.Name(), len(t.W), len(t.Vals))
	}
	for a, w := range t.W {
		if !(0 <= w && w <= 1) { // written so that NaN fails it too
			return fmt.Errorf("relation %s: attribute %s: weight %v outside [0,1]", r.schema.Name(), r.schema.Attr(a), w)
		}
	}
	if t.ID == 0 {
		t.ID = r.nextID
	}
	if _, dup := r.Position(t.ID); dup {
		return fmt.Errorf("relation %s: duplicate tuple id %d", r.schema.Name(), t.ID)
	}
	if t.ID >= r.nextID {
		r.nextID = t.ID + 1
	}
	r.cover(t.ID)
	r.setPos(t.ID, len(r.tuples))
	if r.activeGens.Load() != 0 {
		r.cowAppend(t)
	} else {
		r.tuples = append(r.tuples, t)
	}
	// A probe of this dictionary already holds the id of every constant
	// the dictionary had seen, and those ids stay valid (a Dict only grows);
	// adopt interns the rest. Any other tuple is (re-)interned: ids from a
	// previous owner or another dictionary are meaningless here. Either
	// way the stored Value is canonicalized to the dictionary's copy of
	// the string, so a constant appearing in a million cells pins one
	// backing array, not a million parser-owned copies.
	if t.probed == r.dict {
		r.dict.adopt(t.ids, t.Vals)
		for a, id := range t.ids {
			if id != NullID {
				r.bump(a, id, t.Vals[a].Str)
			}
		}
	} else {
		t.ids = make([]ValueID, len(t.Vals))
		for a, v := range t.Vals {
			if v.Null {
				t.Vals[a] = NullValue
				continue
			}
			id, s := r.dict.intern(v.Str)
			t.ids[a] = id
			t.Vals[a] = Value{Str: s}
			r.bump(a, id, s)
		}
	}
	t.probed = nil
	r.version++
	r.stamp(len(r.tuples) - 1)
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
	i, ok := r.Position(id)
	if !ok {
		return false
	}
	t := r.tuples[i]
	for a, id := range t.ids {
		if id != NullID {
			r.drop(a, id)
		}
	}
	if r.activeGens.Load() != 0 {
		r.cowDelete(i)
	} else {
		last := len(r.tuples) - 1
		r.tuples[i] = r.tuples[last]
		r.setPos(r.tuples[i].ID, i)
		r.tuples = r.tuples[:last]
	}
	r.clearPos(id)
	r.version++
	r.stamp(i)
	r.stamp(len(r.tuples)) // the old last slot, now cut off
	if len(r.subs) > 0 {
		r.notify(Delta{Kind: DeltaDelete, T: t})
	}
	return true
}

// Set changes attribute a of tuple id to v, updating the active domain.
// It returns the previous value.
func (r *Relation) Set(id TupleID, a int, v Value) (Value, error) {
	i, ok := r.Position(id)
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
		r.drop(a, oldID)
	}
	vid := NullID
	if v.Null {
		v = NullValue
	} else {
		// Canonicalize to the dictionary's backing string (see Insert).
		vid, v.Str = r.dict.intern(v.Str)
		r.bump(a, vid, v.Str)
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
	r.stamp(i)
	if len(r.subs) > 0 {
		r.notify(Delta{Kind: DeltaUpdate, T: t, Attr: a, Old: old, OldID: oldID})
	}
	return old, nil
}

// stamp records that slot i's page was written at the current version.
func (r *Relation) stamp(i int) {
	p := i / PageRows
	for p >= len(r.stamps) {
		r.stamps = append(r.stamps, 0)
	}
	r.stamps[p] = r.version
}

// ActiveDomain returns the sorted distinct non-null constants currently
// appearing in attribute a — the paper's adom(A, D) (§2). Repairs draw
// replacement values from the active domain or null; no values are
// invented (§3.1).
func (r *Relation) ActiveDomain(a int) []string {
	out := make([]string, 0, len(r.adom[a].vals))
	for _, v := range r.adom[a].vals {
		out = append(out, v.str)
	}
	sort.Strings(out)
	return out
}

// ActiveDomainSize returns |adom(a, D)| without materializing it.
func (r *Relation) ActiveDomainSize(a int) int { return len(r.adom[a].vals) }

// EachDomainValue calls f with every value of adom(a, D) and its id, in no
// particular order, without allocating. f must not mutate the relation.
func (r *Relation) EachDomainValue(a int, f func(id ValueID, s string)) {
	for _, v := range r.adom[a].vals {
		f(v.id, v.str)
	}
}

// DomainCount returns the number of tuples whose attribute a currently
// equals constant s.
func (r *Relation) DomainCount(a int, s string) int {
	id, ok := r.dict.LookupStr(s)
	if !ok {
		return 0
	}
	if i, ok := r.place(a, id); ok {
		return int(r.adom[a].vals[i].n)
	}
	return 0
}

// Clone deep-copies the relation, tuples included. The interning
// dictionary is cloned id-preservingly, so value ids remain comparable
// across a relation and its clones — which is also why the copy needs no
// dictionary lookups: every tuple keeps the ids it has. The clone starts
// a journal of its own, as if its tuples had just been inserted in order.
// Every tuple keeps its position and every value its id, so the id table
// and the domains' home table are copied as they are: one slice each. The
// clone's CSV page cache starts empty.
func (r *Relation) Clone() *Relation {
	c := &Relation{
		schema:  r.schema,
		tuples:  make([]*Tuple, len(r.tuples)),
		slots:   slices.Clone(r.slots),
		over:    maps.Clone(r.over),
		nextID:  1,
		dict:    r.dict.Clone(),
		adom:    make([]domain, len(r.adom)),
		home:    slices.Clone(r.home),
		version: uint64(len(r.tuples)),
	}
	for a, d := range r.adom {
		c.adom[a] = domain{vals: slices.Clone(d.vals), spill: maps.Clone(d.spill)}
	}
	for i, t := range r.tuples {
		ct := t.Clone()
		ct.ids = append([]ValueID(nil), t.ids...)
		c.tuples[i] = ct
		if ct.ID >= c.nextID {
			c.nextID = ct.ID + 1
		}
	}
	return c
}
