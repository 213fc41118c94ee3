package relation

import (
	"maps"
	"sync"
)

// ValueID is a dense interned identifier for a Value within one Dict.
// ID 0 is reserved for SQL null; InvalidID marks "not interned", so probe
// paths can encode "this constant appears nowhere in the dictionary"
// without touching the strings themselves. All equality of interned values
// is O(1) integer comparison.
type ValueID uint32

const (
	// NullID is the reserved interned id of SQL null.
	NullID ValueID = 0
	// InvalidID is returned by lookups for constants absent from the
	// dictionary. It is never assigned to a real value, so composite keys
	// built from it match nothing.
	InvalidID ValueID = ^ValueID(0)
)

// Dict is an interning dictionary mapping each distinct string constant to
// a dense ValueID. A Dict only grows: ids stay valid for the lifetime of
// the dictionary (and of its clones), even after every tuple carrying the
// value is deleted. Dict is safe for concurrent use: building a Detector
// interns pattern constants into the relation's dictionary, so independent
// read-only queries (Satisfies, Detect, ...) may race on it otherwise.
// The hot paths never touch the dictionary: relation-owned tuples carry
// their ids, and so do TUPLERESOLVE's trial tuples (Tuple.Probe) and its
// candidate values (IDValue), which are resolved once before the candidate
// enumeration starts. The lock only guards interning and the lookups of
// genuinely free-standing tuples handed to the query APIs.
type Dict struct {
	mu    sync.RWMutex
	byStr map[string]ValueID
	strs  []string // strs[id]; strs[0] is the null placeholder
	plain []bool   // plain[id]: csvPlain(strs[id]), set once by intern; false for null
}

// NewDict returns an empty dictionary with the null id reserved.
func NewDict() *Dict {
	return &Dict{
		byStr: make(map[string]ValueID),
		strs:  []string{""},
		plain: []bool{false},
	}
}

// InternStr returns the id of constant s, assigning the next dense id on
// first sight.
func (d *Dict) InternStr(s string) ValueID {
	id, _ := d.intern(s)
	return id
}

// intern is InternStr that also returns the dictionary's own copy of s,
// under the one lock.
func (d *Dict) intern(s string) (ValueID, string) {
	d.mu.RLock()
	id, ok := d.byStr[s]
	if ok {
		s = d.strs[id]
	}
	d.mu.RUnlock()
	if ok {
		return id, s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byStr[s]; ok {
		return id, d.strs[id]
	}
	id = ValueID(len(d.strs))
	d.strs = append(d.strs, s)
	d.plain = append(d.plain, csvPlain(s))
	d.byStr[s] = id
	return id, s
}

// adopt completes a probe's ids (Tuple.Probe against d) for insertion: the
// constants the probe found unseen are interned in attribute order — so they
// get the ids interning every value in that order would give them — and
// then every constant of vals is replaced by d's own copy, under one read
// lock.
func (d *Dict) adopt(ids []ValueID, vals []Value) {
	for a, id := range ids {
		if id == InvalidID {
			ids[a], _ = d.intern(vals[a].Str)
		}
	}
	d.Fill(vals, ids)
}

// Fill sets vals[a] to the value ids[a] names — d's own copy of the
// constant, or null for NullID — under one read lock. Every id must be
// one d has assigned.
func (d *Dict) Fill(vals []Value, ids []ValueID) {
	d.mu.RLock()
	for a, id := range ids {
		if id == NullID {
			vals[a] = NullValue
		} else {
			vals[a] = Value{Str: d.strs[id]}
		}
	}
	d.mu.RUnlock()
}

// probeFields returns a probe of d (see Tuple.Probe) holding the CSV
// fields rec, NullLiteral as null. A field is looked up by its bytes under
// one read lock for the row: one d has seen takes d's own copy and costs
// no string; only an unseen one is copied out, with InvalidID for adopt to
// intern.
func (d *Dict) probeFields(rec [][]byte) *Tuple {
	vals := make([]Value, len(rec))
	ids := make([]ValueID, len(rec))
	d.mu.RLock()
	for a, f := range rec {
		if string(f) == NullLiteral {
			vals[a] = NullValue
			continue
		}
		if id, ok := d.byStr[string(f)]; ok {
			vals[a], ids[a] = Value{Str: d.strs[id]}, id
		} else {
			vals[a], ids[a] = Value{Str: string(f)}, InvalidID
		}
	}
	d.mu.RUnlock()
	return &Tuple{Vals: vals, ids: ids, probed: d}
}

// plainFlags returns the csvPlain flag of every id assigned so far. The
// entries are never written again, only appended to, so the caller may read
// them without the lock while the dictionary grows.
func (d *Dict) plainFlags() []bool {
	d.mu.RLock()
	p := d.plain
	d.mu.RUnlock()
	return p
}

// Intern returns the id of v: NullID for null, InternStr otherwise.
func (d *Dict) Intern(v Value) ValueID {
	if v.Null {
		return NullID
	}
	return d.InternStr(v.Str)
}

// LookupStr returns the id of constant s without interning; ok is false
// (and the id InvalidID) when s has never been seen.
func (d *Dict) LookupStr(s string) (ValueID, bool) {
	d.mu.RLock()
	id, ok := d.byStr[s]
	d.mu.RUnlock()
	if ok {
		return id, true
	}
	return InvalidID, false
}

// LookupValue returns the id of v without interning: NullID for null,
// InvalidID for unseen constants.
func (d *Dict) LookupValue(v Value) ValueID {
	if v.Null {
		return NullID
	}
	id, _ := d.LookupStr(v.Str)
	return id
}

// IDValue is a value together with its id in some Dict, so that whoever
// receives it can take the id-keyed paths (index probes, pattern matching,
// the cost memo) without resolving the string again. ID is NullID for null
// and InvalidID for a constant the dictionary has never seen.
type IDValue struct {
	Value
	ID ValueID
}

// NullIDValue is SQL null as an IDValue, in every dictionary.
var NullIDValue = IDValue{Value: NullValue, ID: NullID}

// Resolve pairs v with its id, without interning.
func (d *Dict) Resolve(v Value) IDValue {
	return IDValue{Value: v, ID: d.LookupValue(v)}
}

// Value resolves an id back to its Value. NullID yields the null value.
func (d *Dict) Value(id ValueID) Value {
	if id == NullID {
		return NullValue
	}
	return Value{Str: d.Str(id)}
}

// Str resolves a non-null id to its constant.
func (d *Dict) Str(id ValueID) string {
	d.mu.RLock()
	s := d.strs[id]
	d.mu.RUnlock()
	return s
}

// StringsFrom returns the constants with non-null ordinal in [start, end):
// ordinal 0 is the first interned constant (ValueID 1). The slice is a
// copy, safe to hold while the dictionary keeps growing. Used by the disk
// store to flush dictionary deltas: because a Dict only grows and assigns
// ids densely in intern order, persisting the entries in ordinal order is
// enough to reproduce identical ids on reload.
func (d *Dict) StringsFrom(start, end int) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if start < 0 {
		start = 0
	}
	if end > len(d.strs)-1 {
		end = len(d.strs) - 1
	}
	if start >= end {
		return nil
	}
	return append([]string(nil), d.strs[1+start:1+end]...)
}

// Len returns the number of distinct constants interned (null excluded).
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.strs) - 1
	d.mu.RUnlock()
	return n
}

// Clone copies the dictionary; ids are preserved, so interned tuples of a
// cloned relation keep their ids valid against the cloned dictionary.
func (d *Dict) Clone() *Dict {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return &Dict{
		byStr: maps.Clone(d.byStr),
		strs:  append([]string(nil), d.strs...),
		plain: append([]bool(nil), d.plain...),
	}
}

// PairKey packs two interned ids into one uint64, for symmetric or ordered
// pair-keyed memo tables (e.g. the cost model's distance cache).
func PairKey(a, b ValueID) uint64 { return uint64(a)<<32 | uint64(b) }
