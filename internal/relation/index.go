package relation

// HashIndex is an equality index over a fixed set of attributes, mapping
// the fixed-width integer composite key of a tuple's projection (interned
// value ids) to the tuple ids carrying it. It is the workhorse behind
// violation detection and the LHS indices of INCREPAIR (§5.2): given a
// candidate repair t” we look up t”[X] and test whether the indexed
// A-values agree.
//
// The index is maintained eagerly: callers notify it of inserts, deletes
// and attribute updates. The Relation does not own indices; repair
// algorithms build the ones they need.
//
// The index keeps no per-tuple state: a tuple's bucket is found from its
// values, so Remove takes the tuple as it was when it left and Update
// takes the id the changed attribute held before — both are what the
// relation's mutation journal hands its subscribers. What an index costs
// is then its distinct keys, not |D|.
type HashIndex struct {
	rel   *Relation
	attrs []int
	// byKey numbers the buckets; lists[b] holds bucket b's members. A
	// bucket that empties leaves byKey and its number goes to free.
	byKey map[Key]int32
	lists [][]TupleID
	free  []int32
}

// NewHashIndex builds an index on attrs over the current contents of r.
func NewHashIndex(r *Relation, attrs []int) *HashIndex {
	// The widest active domain among attrs is a lower bound on the number
	// of distinct keys and, for the near-key attribute sets that make an
	// index large, close to it.
	distinct := 0
	for _, a := range attrs {
		distinct = max(distinct, len(r.adom[a]))
	}
	ix := &HashIndex{
		rel:   r,
		attrs: append([]int(nil), attrs...),
		byKey: make(map[Key]int32, distinct),
	}
	// Two passes, one hash per tuple: number the buckets and count their
	// members, then carve every bucket out of one backing array. Each
	// bucket's capacity ends at its own last slot, so a later Add
	// reallocates that bucket alone and never runs into its neighbour.
	tuples := r.Tuples()
	bucketOf := make([]int32, len(tuples))
	counts := make([]int32, 0, distinct)
	for i, t := range tuples {
		k := ix.keyOf(t)
		b, ok := ix.byKey[k]
		if !ok {
			b = int32(len(counts))
			ix.byKey[k] = b
			counts = append(counts, 0)
		}
		counts[b]++
		bucketOf[i] = b
	}
	arena := make([]TupleID, len(tuples))
	ix.lists = make([][]TupleID, len(counts))
	off := 0
	for b, n := range counts {
		end := off + int(n)
		ix.lists[b] = arena[off:off:end]
		off = end
	}
	for i, t := range tuples {
		b := bucketOf[i]
		ix.lists[b] = append(ix.lists[b], t.ID)
	}
	return ix
}

// Attrs returns the indexed attribute positions.
func (ix *HashIndex) Attrs() []int { return ix.attrs }

// keyOf computes the integer composite key of t's projection. Indexed
// tuples are always relation-owned and interned; a free-standing tuple
// (defensive) is keyed through the relation's dictionary.
func (ix *HashIndex) keyOf(t *Tuple) Key {
	if t.Interned() {
		return t.KeyOnIDs(ix.attrs)
	}
	var buf [8]ValueID
	ids := buf[:0]
	for _, a := range ix.attrs {
		ids = append(ids, ix.rel.dict.Intern(t.Vals[a]))
	}
	return KeyOfIDs(ids)
}

func (ix *HashIndex) insert(k Key, id TupleID) {
	b, ok := ix.byKey[k]
	if !ok {
		if n := len(ix.free); n > 0 {
			b, ix.free = ix.free[n-1], ix.free[:n-1]
		} else {
			b = int32(len(ix.lists))
			ix.lists = append(ix.lists, nil)
		}
		ix.byKey[k] = b
	}
	ix.lists[b] = append(ix.lists[b], id)
}

func (ix *HashIndex) drop(k Key, id TupleID) {
	b, ok := ix.byKey[k]
	if !ok {
		return
	}
	ix.lists[b] = dropID(ix.lists[b], id)
	if len(ix.lists[b]) == 0 {
		delete(ix.byKey, k)
		ix.free = append(ix.free, b)
	}
}

// Add indexes tuple t.
func (ix *HashIndex) Add(t *Tuple) { ix.insert(ix.keyOf(t), t.ID) }

// Remove un-indexes tuple t, which must still carry the values it was
// indexed under. A tuple the index does not hold is left alone.
func (ix *HashIndex) Remove(t *Tuple) { ix.drop(ix.keyOf(t), t.ID) }

// Update re-indexes tuple t after its attribute a changed from the value
// with id oldID to the one t carries now. It is a no-op when a is not
// indexed or the value did not change.
func (ix *HashIndex) Update(t *Tuple, a int, oldID ValueID) {
	if !ix.Touches(a) || t.IDAt(a) == oldID {
		return
	}
	var buf [8]ValueID
	ids := t.ProjectIDs(buf[:0], ix.attrs)
	newKey := KeyOfIDs(ids)
	for i, x := range ix.attrs {
		if x == a {
			ids[i] = oldID
		}
	}
	ix.drop(KeyOfIDs(ids), t.ID)
	ix.insert(newKey, t.ID)
}

// Touches reports whether attribute a participates in the index key.
func (ix *HashIndex) Touches(a int) bool {
	for _, x := range ix.attrs {
		if x == a {
			return true
		}
	}
	return false
}

// Lookup returns the ids of tuples whose projection onto the indexed
// attributes equals vals. Values absent from the relation's dictionary
// can match no indexed tuple, so the lookup short-circuits to nil.
func (ix *HashIndex) Lookup(vals []Value) []TupleID {
	var buf [8]ValueID
	ids := buf[:0]
	for _, v := range vals {
		id := ix.rel.dict.LookupValue(v)
		if id == InvalidID {
			return nil
		}
		ids = append(ids, id)
	}
	return ix.LookupKey(KeyOfIDs(ids))
}

// LookupTuple returns the ids of tuples agreeing with t on the indexed
// attributes, taking the interned fast path when t is relation-owned.
func (ix *HashIndex) LookupTuple(t *Tuple) []TupleID {
	if t.Interned() {
		return ix.LookupKey(t.KeyOnIDs(ix.attrs))
	}
	var buf [8]Value
	vals := buf[:0]
	for _, a := range ix.attrs {
		vals = append(vals, t.Vals[a])
	}
	return ix.Lookup(vals)
}

// LookupIDs returns the ids of tuples whose projection onto the indexed
// attributes equals the given interned ids; InvalidID components match
// nothing.
func (ix *HashIndex) LookupIDs(ids []ValueID) []TupleID {
	for _, id := range ids {
		if id == InvalidID {
			return nil
		}
	}
	return ix.LookupKey(KeyOfIDs(ids))
}

// LookupKey returns the ids in the bucket for a precomputed key.
func (ix *HashIndex) LookupKey(key Key) []TupleID {
	if b, ok := ix.byKey[key]; ok {
		return ix.lists[b]
	}
	return nil
}

// Buckets iterates over all (key, ids) pairs in unspecified order. The
// callback must not mutate the index.
func (ix *HashIndex) Buckets(f func(key Key, ids []TupleID)) {
	for k, b := range ix.byKey {
		f(k, ix.lists[b])
	}
}

// Len returns the number of distinct keys.
func (ix *HashIndex) Len() int { return len(ix.byKey) }

func dropID(ids []TupleID, id TupleID) []TupleID {
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			return ids[:len(ids)-1]
		}
	}
	return ids
}
