package relation

import "slices"

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
//
// A counted index (NewCountedHashIndex) also keeps, per bucket, how many
// members carry each non-null value of any number of further attributes —
// for the one LHS index of every embedded FD X → A on the same X, each such
// A. "How many tuples agreeing with t on X disagree with it on A" is then
// two subtractions (BucketCounts) instead of a walk over the bucket, and
// "can this bucket hold a violation at all" is answered without touching a
// member.
//
// Buckets are numbered. A bucket keeps its number for as long as it has a
// member; the number of one that empties is handed to the next new key. The
// mutators return the numbers they touched, so a caller keeping state per
// bucket addresses it by number (BucketAt) and hashes no key a second time.
type HashIndex struct {
	rel   *Relation
	attrs []int
	// byKey numbers the buckets; lists[b] holds bucket b's members. A
	// bucket that empties leaves byKey and its number goes to free.
	byKey map[Key]int32
	lists [][]TupleID
	free  []int32
	// counted are the attributes whose values the buckets tally, none for
	// a plain index; bucket b's tally of counted[j] is
	// counts[b·len(counted)+j].
	counted []int
	counts  []BucketCounts
}

// BucketCounts tallies one bucket of a counted index: how many members
// carry each non-null value of the counted attribute, and the sum of the
// squares of those counts. Under X → A nearly every X-bucket holds a single
// A-value, so one value lives inline and a clean bucket costs no
// allocation; any others go to a map.
type BucketCounts struct {
	nonNull int32
	val     ValueID // the inline value; meaningful while n > 0
	n       int32
	more    map[ValueID]int32
	sq      int64
}

// NonNull returns the number of members whose counted attribute is not null.
func (c *BucketCounts) NonNull() int { return int(c.nonNull) }

// Count returns the number of members carrying the value with id v. NullID
// and InvalidID, which no tallied member carries, count zero.
func (c *BucketCounts) Count(v ValueID) int {
	if c.n > 0 && c.val == v {
		return int(c.n)
	}
	return int(c.more[v])
}

// Distinct returns the number of distinct non-null values in the bucket.
func (c *BucketCounts) Distinct() int {
	if c.n > 0 {
		return len(c.more) + 1
	}
	return len(c.more)
}

// SumSquares returns Σ_v Count(v)² over the non-null values, kept beside
// the counts at O(1) per member added or removed. NonNull² less it is the
// number of ordered pairs of members carrying different non-null values.
func (c *BucketCounts) SumSquares() int { return int(c.sq) }

func (c *BucketCounts) add(v ValueID) {
	if v == NullID {
		return
	}
	c.sq += 2*int64(c.Count(v)) + 1
	c.nonNull++
	switch {
	case c.n > 0 && c.val == v:
		c.n++
	case c.n == 0 && c.more[v] == 0:
		c.val, c.n = v, 1
	default:
		if c.more == nil {
			c.more = make(map[ValueID]int32)
		}
		c.more[v]++
	}
}

func (c *BucketCounts) remove(v ValueID) {
	if v == NullID {
		return
	}
	c.sq -= 2*int64(c.Count(v)) - 1
	c.nonNull--
	if c.n > 0 && c.val == v {
		c.n--
		return
	}
	if k := c.more[v]; k > 1 {
		c.more[v] = k - 1
		return
	}
	delete(c.more, v)
	if len(c.more) == 0 {
		c.more = nil
	}
}

// NewHashIndex builds an index on attrs over the current contents of r.
func NewHashIndex(r *Relation, attrs []int) *HashIndex {
	return NewCountedHashIndex(r, attrs)
}

// NewCountedHashIndex builds an index on attrs whose buckets also tally
// the values of each counted attribute (see BucketCounts), in the order
// given; with none it builds a plain index.
func NewCountedHashIndex(r *Relation, attrs []int, counted ...int) *HashIndex {
	// The widest active domain among attrs is a lower bound on the number
	// of distinct keys and, for the near-key attribute sets that make an
	// index large, close to it.
	distinct := 0
	for _, a := range attrs {
		distinct = max(distinct, r.ActiveDomainSize(a))
	}
	ix := &HashIndex{
		rel:     r,
		attrs:   append([]int(nil), attrs...),
		byKey:   make(map[Key]int32, distinct),
		counted: append([]int(nil), counted...),
	}
	// Two passes, one hash per tuple: number the buckets and count their
	// members, then carve every bucket out of one backing array. Each
	// bucket's capacity ends at its own last slot, so a later Add
	// reallocates that bucket alone and never runs into its neighbour.
	// The tallies of a counted index fill in the second pass, where the
	// tuple is in hand anyway.
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
	if len(counted) > 0 {
		ix.counts = make([]BucketCounts, len(counts)*len(counted))
	}
	for i, t := range tuples {
		b := bucketOf[i]
		ix.lists[b] = append(ix.lists[b], t.ID)
		tl := ix.tallies(b)
		for j, a := range ix.counted {
			tl[j].add(ix.idOf(t, a))
		}
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

// idOf returns the id of t's value at attribute a, with keyOf's treatment
// of a free-standing tuple.
func (ix *HashIndex) idOf(t *Tuple, a int) ValueID {
	if t.Interned() {
		return t.ids[a]
	}
	return ix.rel.dict.Intern(t.Vals[a])
}

// tallies returns bucket b's tallies, one per counted attribute.
func (ix *HashIndex) tallies(b int32) []BucketCounts {
	nc := len(ix.counted)
	return ix.counts[int(b)*nc : (int(b)+1)*nc]
}

// numberOf returns the number of the bucket for k, giving a key met for
// the first time a freed number or the next new one.
func (ix *HashIndex) numberOf(k Key) int32 {
	b, ok := ix.byKey[k]
	if ok {
		return b
	}
	if n := len(ix.free); n > 0 {
		b, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		b = int32(len(ix.lists))
		ix.lists = append(ix.lists, nil)
		ix.counts = append(ix.counts, make([]BucketCounts, len(ix.counted))...)
	}
	ix.byKey[k] = b
	return b
}

// release unfiles bucket b, keyed k, if its last member has gone.
func (ix *HashIndex) release(k Key, b int32) {
	if len(ix.lists[b]) == 0 {
		delete(ix.byKey, k)
		ix.free = append(ix.free, b)
	}
}

// Add indexes tuple t and returns the number of its bucket.
func (ix *HashIndex) Add(t *Tuple) int32 {
	b := ix.numberOf(ix.keyOf(t))
	ix.lists[b] = append(ix.lists[b], t.ID)
	tl := ix.tallies(b)
	for j, a := range ix.counted {
		tl[j].add(ix.idOf(t, a))
	}
	return b
}

// Remove un-indexes tuple t, which must still carry the values it was
// indexed under, and returns the number of the bucket it left — which may
// now be empty, its number free for the next new key. A tuple the index
// does not hold is left alone: -1.
func (ix *HashIndex) Remove(t *Tuple) int32 {
	k := ix.keyOf(t)
	b, ok := ix.byKey[k]
	if !ok {
		return -1
	}
	kept := dropID(ix.lists[b], t.ID)
	if len(kept) == len(ix.lists[b]) {
		return -1
	}
	ix.lists[b] = kept
	tl := ix.tallies(b)
	for j, a := range ix.counted {
		tl[j].remove(ix.idOf(t, a))
	}
	ix.release(k, b)
	return b
}

// Update re-indexes tuple t after its attribute a changed from the value
// with id oldID to the one t carries now, and returns the numbers of the
// bucket t left and the one it is in: the same when a is only counted, two
// different ones when a is part of the key (the new bucket is numbered
// before the old one can give its number up). It is a no-op, returning
// -1, -1, when a is neither indexed nor counted, the value did not change,
// or — as with Remove — the index does not hold t.
func (ix *HashIndex) Update(t *Tuple, a int, oldID ValueID) (from, to int32) {
	inKey := ix.Touches(a)
	if !inKey && !slices.Contains(ix.counted, a) || t.IDAt(a) == oldID {
		return -1, -1
	}
	var buf [8]ValueID
	ids := t.ProjectIDs(buf[:0], ix.attrs)
	newKey := KeyOfIDs(ids)
	oldKey := newKey
	if inKey {
		for i, x := range ix.attrs {
			if x == a {
				ids[i] = oldID
			}
		}
		oldKey = KeyOfIDs(ids)
	}
	from, ok := ix.byKey[oldKey]
	if !ok {
		return -1, -1
	}
	kept := dropID(ix.lists[from], t.ID)
	if len(kept) == len(ix.lists[from]) {
		return -1, -1
	}
	to = from
	if inKey {
		to = ix.numberOf(newKey)
	}
	ix.lists[from] = kept
	ix.lists[to] = append(ix.lists[to], t.ID)
	left, entered := ix.tallies(from), ix.tallies(to)
	for j, c := range ix.counted {
		now := t.ids[c]
		was := now
		if c == a {
			was = oldID
		}
		left[j].remove(was)
		entered[j].add(now)
	}
	ix.release(oldKey, from)
	return from, to
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

// BucketOf returns the number of the bucket for a precomputed key, -1 when
// no tuple carries it.
func (ix *HashIndex) BucketOf(key Key) int32 {
	if b, ok := ix.byKey[key]; ok {
		return b
	}
	return -1
}

// BucketAt returns the members of bucket b and its tallies, one per counted
// attribute in NewCountedHashIndex's order (nil for a plain index). Both
// are valid until the index next changes; a number whose bucket has emptied
// reads as no members and all-zero tallies.
func (ix *HashIndex) BucketAt(b int32) ([]TupleID, []BucketCounts) {
	return ix.lists[b], ix.tallies(b)
}

// CountsIDs returns the tallies of the bucket whose key is the given
// interned ids, nil when there is none (an InvalidID component matches
// nothing) or the index is plain. They are valid until the index next
// changes.
func (ix *HashIndex) CountsIDs(ids []ValueID) []BucketCounts {
	for _, id := range ids {
		if id == InvalidID {
			return nil
		}
	}
	if b, ok := ix.byKey[KeyOfIDs(ids)]; ok {
		return ix.tallies(b)
	}
	return nil
}

// Buckets iterates over all buckets in order of their numbers: number,
// members and tallies (as BucketAt). The callback must not mutate the index.
func (ix *HashIndex) Buckets(f func(b int32, ids []TupleID, counts []BucketCounts)) {
	for b, ids := range ix.lists {
		if len(ids) > 0 {
			f(int32(b), ids, ix.tallies(int32(b)))
		}
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
