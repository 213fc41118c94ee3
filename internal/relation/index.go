package relation

import (
	"cmp"
	"iter"
	"slices"
)

// HashIndex is an equality index over a fixed set of attributes, mapping a
// tuple's projection (its interned value ids, keyed by a KeyMap: one 64-bit
// word on one or two attributes) to the tuple ids carrying it. It is the
// workhorse behind violation detection and the LHS indices of INCREPAIR
// (§5.2): given a candidate repair t” we look up t”[X] and test whether
// the indexed A-values agree.
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
//
// A bucket lists its members in ascending id order, so "the smallest id in
// the bucket that …" is its first qualifying member. An arrival whose id
// is the bucket's largest appends, as the relation's own ids do; any other
// change deletes or inserts in place; a build sorts its buckets only when
// the relation's physical order is not id order (a Delete moves the last
// tuple into the freed slot).
type HashIndex struct {
	rel   *Relation
	attrs []int
	// byKey numbers the buckets; lists[b] holds bucket b's members. A
	// bucket that empties leaves byKey and its number goes to free.
	byKey KeyMap
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

// All iterates over the distinct non-null values with their counts, in no
// particular order.
func (c *BucketCounts) All() iter.Seq2[ValueID, int] {
	return func(yield func(ValueID, int) bool) {
		if c.n > 0 && !yield(c.val, int(c.n)) {
			return
		}
		for v, n := range c.more {
			if !yield(v, int(n)) {
				return
			}
		}
	}
}

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
		byKey:   NewKeyMap(len(attrs), distinct),
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
	var buf [8]ValueID
	for i, t := range tuples {
		ids := ix.project(t, buf[:0])
		b, ok := ix.byKey.Get(ids)
		if !ok {
			b = int32(len(counts))
			ix.byKey.Put(ids, b)
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
	if !slices.IsSortedFunc(tuples, func(t, u *Tuple) int { return cmp.Compare(t.ID, u.ID) }) {
		for _, ids := range ix.lists {
			slices.Sort(ids)
		}
	}
	return ix
}

// Attrs returns the indexed attribute positions.
func (ix *HashIndex) Attrs() []int { return ix.attrs }

// project appends the ids of t's projection onto the indexed attributes to
// buf. Indexed tuples are relation-owned and interned; a free-standing one
// (defensive) is projected through the relation's dictionary, as by idOf.
func (ix *HashIndex) project(t *Tuple, buf []ValueID) []ValueID {
	for _, a := range ix.attrs {
		buf = append(buf, ix.idOf(t, a))
	}
	return buf
}

// idOf returns the id of t's value at attribute a, interning it for a
// free-standing tuple.
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

// numberOf returns the number of the bucket for the projection ids, giving
// one met for the first time a freed number or the next new one.
func (ix *HashIndex) numberOf(ids []ValueID) int32 {
	b, ok := ix.byKey.Get(ids)
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
	ix.byKey.Put(ids, b)
	return b
}

// release unfiles bucket b, whose projection is ids, once it is empty.
func (ix *HashIndex) release(ids []ValueID, b int32) {
	if len(ix.lists[b]) == 0 {
		ix.byKey.Delete(ids)
		ix.free = append(ix.free, b)
	}
}

// Add indexes tuple t and returns the number of its bucket.
func (ix *HashIndex) Add(t *Tuple) int32 {
	var buf [8]ValueID
	b := ix.numberOf(ix.project(t, buf[:0]))
	ix.lists[b] = insertID(ix.lists[b], t.ID)
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
	var buf [8]ValueID
	ids := ix.project(t, buf[:0])
	b, ok := ix.byKey.Get(ids)
	if !ok {
		return -1
	}
	kept, ok := dropID(ix.lists[b], t.ID)
	if !ok {
		return -1
	}
	ix.lists[b] = kept
	tl := ix.tallies(b)
	for j, a := range ix.counted {
		tl[j].remove(ix.idOf(t, a))
	}
	ix.release(ids, b)
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
	var buf, oldBuf [8]ValueID
	ids := t.ProjectIDs(buf[:0], ix.attrs)
	oldIDs := append(oldBuf[:0], ids...)
	for i, x := range ix.attrs {
		if x == a {
			oldIDs[i] = oldID
		}
	}
	from, ok := ix.byKey.Get(oldIDs)
	if !ok {
		return -1, -1
	}
	if _, held := slices.BinarySearch(ix.lists[from], t.ID); !held {
		return -1, -1
	}
	to = from
	if inKey {
		to = ix.numberOf(ids)
		ix.lists[from], _ = dropID(ix.lists[from], t.ID)
		ix.lists[to] = insertID(ix.lists[to], t.ID)
	}
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
	ix.release(oldIDs, from)
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

// LookupIDs returns the members and the tallies (as BucketAt) of the bucket
// whose key is the given interned ids; nil, nil when there is none — an
// InvalidID component matches nothing.
func (ix *HashIndex) LookupIDs(ids []ValueID) ([]TupleID, []BucketCounts) {
	if slices.Contains(ids, InvalidID) {
		return nil, nil
	}
	if b, ok := ix.byKey.Get(ids); ok {
		return ix.BucketAt(b)
	}
	return nil, nil
}

// BucketOf returns the number of the bucket of the interned tuple t's
// projection, -1 when no indexed tuple carries it.
func (ix *HashIndex) BucketOf(t *Tuple) int32 {
	var buf [8]ValueID
	if b, ok := ix.byKey.Get(t.ProjectIDs(buf[:0], ix.attrs)); ok {
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
func (ix *HashIndex) Len() int { return ix.byKey.Len() }

// insertID files id into the ascending list ids.
func insertID(ids []TupleID, id TupleID) []TupleID {
	if n := len(ids); n == 0 || ids[n-1] < id {
		return append(ids, id)
	}
	i, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, i, id)
}

// dropID removes id from the ascending list ids, reporting whether it was
// there.
func dropID(ids []TupleID, id TupleID) ([]TupleID, bool) {
	i, ok := slices.BinarySearch(ids, id)
	if !ok {
		return ids, false
	}
	return slices.Delete(ids, i, i+1), true
}
