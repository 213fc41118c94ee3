package relation

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

func idxRel(t *testing.T) *Relation {
	t.Helper()
	r := New(MustSchema("r", "a", "b", "c"))
	return r
}

// lookup returns the members of ix's bucket for the values vals, looked up
// in the relation's dictionary: nil when one of them is not there.
func lookup(ix *HashIndex, vals ...Value) []TupleID {
	var ids []ValueID
	for _, v := range vals {
		ids = append(ids, ix.rel.dict.LookupValue(v))
	}
	members, _ := ix.LookupIDs(ids)
	return members
}

func TestHashIndexAddLookup(t *testing.T) {
	r := idxRel(t)
	t1, _ := r.InsertRow("x", "1", "p")
	t2, _ := r.InsertRow("x", "1", "q")
	t3, _ := r.InsertRow("y", "2", "p")
	ix := NewCountedHashIndex(r, []int{0, 1})
	got := lookup(ix, S("x"), S("1"))
	if len(got) != 2 || got[0] != t1.ID || got[1] != t2.ID {
		t.Fatalf("Lookup(x,1) = %v, want [%d %d]", got, t1.ID, t2.ID)
	}
	if got := lookup(ix, S("y"), S("2")); len(got) != 1 || got[0] != t3.ID {
		t.Fatalf("Lookup(y,2) = %v, want [%d]", got, t3.ID)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

func TestHashIndexLookupUnknownValue(t *testing.T) {
	r := idxRel(t)
	r.MustInsert(NewTuple(0, "x", "1", "p"))
	ix := NewCountedHashIndex(r, []int{0})
	// "zzz" was never interned: the probe must short-circuit to nil
	// without touching (or growing) the dictionary.
	before := r.Dict().Len()
	if got := lookup(ix, S("zzz")); got != nil {
		t.Fatalf("Lookup(zzz) = %v, want nil", got)
	}
	if r.Dict().Len() != before {
		t.Fatalf("probe interned a value: dict grew %d -> %d", before, r.Dict().Len())
	}
}

func TestHashIndexUpdateSameKey(t *testing.T) {
	r := idxRel(t)
	tp, _ := r.InsertRow("x", "1", "p")
	ix := NewCountedHashIndex(r, []int{0})
	// Change an un-indexed attribute: key on attr 0 is unchanged.
	old := tp.IDAt(2)
	if _, err := r.Set(tp.ID, 2, S("q")); err != nil {
		t.Fatal(err)
	}
	ix.Update(tp, 2, old)
	got := lookup(ix, S("x"))
	if len(got) != 1 || got[0] != tp.ID {
		t.Fatalf("after same-key update, Lookup(x) = %v, want [%d] exactly once", got, tp.ID)
	}
}

func TestHashIndexUpdateMovesBucket(t *testing.T) {
	r := idxRel(t)
	tp, _ := r.InsertRow("x", "1", "p")
	ix := NewCountedHashIndex(r, []int{0})
	old := tp.IDAt(0)
	if _, err := r.Set(tp.ID, 0, S("y")); err != nil {
		t.Fatal(err)
	}
	ix.Update(tp, 0, old)
	if got := lookup(ix, S("x")); len(got) != 0 {
		t.Fatalf("old bucket still holds %v", got)
	}
	got := lookup(ix, S("y"))
	if len(got) != 1 || got[0] != tp.ID {
		t.Fatalf("new bucket = %v, want [%d]", got, tp.ID)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (empty bucket must be deleted)", ix.Len())
	}
}

func TestHashIndexUpdateUnchangedValue(t *testing.T) {
	r := idxRel(t)
	tp, _ := r.InsertRow("x", "1", "p")
	ix := NewCountedHashIndex(r, []int{0})
	// The old id equals the current one: nothing moved, nothing is added.
	ix.Update(tp, 0, tp.IDAt(0))
	got := lookup(ix, S("x"))
	if len(got) != 1 || got[0] != tp.ID {
		t.Fatalf("after unchanged-value update, Lookup(x) = %v, want [%d] exactly once", got, tp.ID)
	}
}

func TestHashIndexRemove(t *testing.T) {
	r := idxRel(t)
	t1, _ := r.InsertRow("x", "1", "p")
	t2, _ := r.InsertRow("x", "1", "q")
	ix := NewCountedHashIndex(r, []int{0})
	ix.Remove(t1)
	got := lookup(ix, S("x"))
	if len(got) != 1 || got[0] != t2.ID {
		t.Fatalf("after remove, Lookup(x) = %v, want [%d]", got, t2.ID)
	}
	ix.Remove(t2)
	if got := lookup(ix, S("x")); len(got) != 0 {
		t.Fatalf("after removing all, Lookup(x) = %v", got)
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d, want 0", ix.Len())
	}
}

func TestHashIndexRemoveUnindexed(t *testing.T) {
	r := idxRel(t)
	t1, _ := r.InsertRow("x", "1", "p")
	ix := NewCountedHashIndex(r, []int{0})
	ix.Remove(NewTuple(9999, "x", "1", "p")) // never indexed: must be a no-op
	ix.Remove(NewTuple(9998, "z", "1", "p")) // nor is its key
	got := lookup(ix, S("x"))
	if len(got) != 1 || got[0] != t1.ID {
		t.Fatalf("remove of unindexed id disturbed the index: %v", got)
	}
}

// TestHashIndexUpdateUnindexed: like Remove, Update leaves a tuple the
// index does not hold alone — it must not file it under its new key, where
// one phantom member would miscount every tally of the bucket at once.
func TestHashIndexUpdateUnindexed(t *testing.T) {
	r := idxRel(t)
	t1, _ := r.InsertRow("x", "1", "p")
	ix := NewCountedHashIndex(r, []int{0}, 1, 2)
	t2, _ := r.InsertRow("y", "2", "q") // the index never hears of it
	for _, a := range []int{0, 1} {     // a key attribute, a counted one
		old := t2.IDAt(a)
		if _, err := r.Set(t2.ID, a, S("x")); err != nil {
			t.Fatal(err)
		}
		if from, to := ix.Update(t2, a, old); from != -1 || to != -1 {
			t.Fatalf("Update of an unindexed tuple on attribute %d touched buckets %d, %d", a, from, to)
		}
	}
	if got := lookup(ix, S("x")); len(got) != 1 || got[0] != t1.ID {
		t.Fatalf("Update filed an unindexed tuple: Lookup(x) = %v, want [%d]", got, t1.ID)
	}
	if _, c := ix.LookupIDs([]ValueID{t1.IDAt(0)}); c[0].NonNull() != 1 || c[1].NonNull() != 1 {
		t.Fatalf("bucket x tallies %d and %d members, want 1 and 1", c[0].NonNull(), c[1].NonNull())
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
}

func TestHashIndexNullKeys(t *testing.T) {
	r := idxRel(t)
	tn := &Tuple{Vals: []Value{NullValue, S("1"), S("p")}}
	r.MustInsert(tn)
	tx, _ := r.InsertRow("x", "1", "p")
	ix := NewCountedHashIndex(r, []int{0})
	if got := lookup(ix, NullValue); len(got) != 1 || got[0] != tn.ID {
		t.Fatalf("Lookup(null) = %v, want [%d]", got, tn.ID)
	}
	if got := lookup(ix, S("x")); len(got) != 1 || got[0] != tx.ID {
		t.Fatalf("Lookup(x) = %v, want [%d]", got, tx.ID)
	}
}

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	id1 := d.InternStr("a")
	id2 := d.InternStr("b")
	if id1 == id2 || id1 == NullID || id2 == NullID {
		t.Fatalf("bad ids %d %d", id1, id2)
	}
	if got := d.InternStr("a"); got != id1 {
		t.Fatalf("re-intern gave %d, want %d", got, id1)
	}
	if got, ok := d.LookupStr("b"); !ok || got != id2 {
		t.Fatalf("LookupStr(b) = %d,%v", got, ok)
	}
	if _, ok := d.LookupStr("zzz"); ok {
		t.Fatal("LookupStr found unseen value")
	}
	if d.LookupValue(NullValue) != NullID {
		t.Fatal("null must map to NullID")
	}
	if v := d.Value(id1); v.Null || v.Str != "a" {
		t.Fatalf("Value(id1) = %v", v)
	}
	if v := d.Value(NullID); !v.Null {
		t.Fatalf("Value(NullID) = %v, want null", v)
	}
	cl := d.Clone()
	if got, ok := cl.LookupStr("a"); !ok || got != id1 {
		t.Fatal("clone must preserve ids")
	}
	cl.InternStr("c")
	if _, ok := d.LookupStr("c"); ok {
		t.Fatal("clone interning leaked into the original")
	}
}

// allocBytes reports the heap bytes one call of f allocates (mean of 20).
func allocBytes(f func()) uint64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestHashIndexBuildBudget pins what building an index costs: it is sized
// by its distinct keys and carries no per-tuple map, so over 500 tuples a
// key-like index stays under 80 KiB and a 10-key index under 12 KiB. (With
// two maps pre-sized to |D| the same builds took 116 KiB and 122 KiB.)
//
// A counted index adds one 32-byte tally per bucket and counted attribute
// (its counts' sum of squares included) and nothing per tuple — a bucket's
// first value lives in the tally itself — so counting a single-valued
// attribute costs keys × 32 B on top of the
// plain build, give or take the allocator's size classes. Only a bucket holding a second
// value allocates, one small map each: counting d, five values per bucket,
// the ten buckets may take 256 B apiece.
func TestHashIndexBuildBudget(t *testing.T) {
	r := New(MustSchema("r", "a", "b", "c", "d"))
	for i := 0; i < 500; i++ {
		r.MustInsert(NewTuple(0, fmt.Sprint("a", i), fmt.Sprint("b", i%10), "c", fmt.Sprint("d", i%50)))
	}
	const tally = 32
	for _, tc := range []struct {
		attrs  []int
		keys   int
		budget uint64
	}{
		{[]int{0, 1}, 500, 80 << 10},
		{[]int{1}, 10, 12 << 10},
	} {
		var ix *HashIndex
		plain := allocBytes(func() { ix = NewCountedHashIndex(r, tc.attrs) })
		if ix.Len() != tc.keys {
			t.Fatalf("index on %v has %d keys, want %d", tc.attrs, ix.Len(), tc.keys)
		}
		if plain > tc.budget {
			t.Errorf("a plain index on %v allocates %d B, budget %d B", tc.attrs, plain, tc.budget)
		}
		clean := allocBytes(func() { ix = NewCountedHashIndex(r, tc.attrs, 2) })
		// (The measurement is a mean over runs with the test's own garbage
		// being collected beside it: good to a few hundred bytes.)
		if extra, budget := int(clean)-int(plain), tc.keys*tally+tc.keys*tally/16+512; extra > budget {
			t.Errorf("counting a single-valued attribute on %v costs %d B over the plain build, budget %d B", tc.attrs, extra, budget)
		}
		both := allocBytes(func() { ix = NewCountedHashIndex(r, tc.attrs, 2, 2) })
		if extra, budget := int(both)-int(clean), tc.keys*tally+tc.keys*tally/16+512; extra > budget {
			t.Errorf("a second tally on %v costs %d B over the first, budget %d B", tc.attrs, extra, budget)
		}
		dirty := allocBytes(func() { ix = NewCountedHashIndex(r, tc.attrs, 3) })
		if extra, budget := int(dirty)-int(clean), 256*min(tc.keys, 10)+512; extra > budget {
			t.Errorf("counting d on %v costs %d B over counting c, budget %d B", tc.attrs, extra, budget)
		}
		t.Logf("index on %v: plain %d B, counting c %d B, c twice %d B, counting d %d B", tc.attrs, plain, clean, both, dirty)
	}
}

// TestCountedIndexTallies drives an index counting two attributes through
// Add, Remove and Update — of a key attribute, of either counted attribute
// alone, to and from null — and holds every tally of every bucket to a
// recount, and every bucket number the mutators return to the bucket the
// tuple is (or was) in, after each step.
func TestCountedIndexTallies(t *testing.T) {
	r := New(MustSchema("r", "k", "v", "w", "u"))
	counted := []int{1, 2}
	ix := NewCountedHashIndex(r, []int{0}, counted...)
	check := func(tag string) {
		t.Helper()
		seen := 0
		ix.Buckets(func(b int32, ids []TupleID, counts []BucketCounts) {
			seen += len(ids)
			if !slices.IsSorted(ids) {
				t.Fatalf("%s: bucket %d lists %v, not in ascending id order", tag, b, ids)
			}
			if got := ix.BucketOf(r.Tuple(ids[0])); got != b {
				t.Fatalf("%s: bucket %d is filed under the key of bucket %d", tag, b, got)
			}
			if len(counts) != len(counted) {
				t.Fatalf("%s: bucket %d has %d tallies, want %d", tag, b, len(counts), len(counted))
			}
			for j, a := range counted {
				c := &counts[j]
				want := map[ValueID]int{}
				nonNull := 0
				for _, id := range ids {
					if vid := r.Tuple(id).IDAt(a); vid != NullID {
						want[vid]++
						nonNull++
					}
				}
				if c.NonNull() != nonNull || c.Distinct() != len(want) {
					t.Fatalf("%s: bucket %v attribute %d: tally %d non-null / %d distinct, recount %d / %d", tag, ids, a, c.NonNull(), c.Distinct(), nonNull, len(want))
				}
				sq := 0
				for vid, n := range want {
					if c.Count(vid) != n {
						t.Fatalf("%s: bucket %v attribute %d: Count(%d) = %d, recount %d", tag, ids, a, vid, c.Count(vid), n)
					}
					sq += n * n
				}
				if c.SumSquares() != sq {
					t.Fatalf("%s: bucket %v attribute %d: SumSquares = %d, recount %d", tag, ids, a, c.SumSquares(), sq)
				}
			}
		})
		if seen != r.Size() {
			t.Fatalf("%s: index holds %d of %d tuples", tag, seen, r.Size())
		}
	}
	bucketOf := ix.BucketOf
	set := func(id TupleID, a int, v Value) {
		t.Helper()
		tu := r.Tuple(id)
		old, was := tu.IDAt(a), bucketOf(tu)
		if _, err := r.Set(id, a, v); err != nil {
			t.Fatal(err)
		}
		from, to := ix.Update(tu, a, old)
		switch {
		case a == 3:
			if from != -1 || to != -1 {
				t.Fatalf("Update on an attribute neither indexed nor counted touched buckets %d, %d", from, to)
			}
		case from != was || to != bucketOf(tu) || (a == 0) == (from == to):
			t.Fatalf("Update on attribute %d returned buckets %d → %d; the tuple went %d → %d", a, from, to, was, bucketOf(tu))
		}
	}
	var ids []TupleID
	for _, row := range [][]string{{"x", "1", "p", "-"}, {"x", "1", "q", "-"}, {"x", "2", "p", "-"}, {"y", "3", "p", "-"}} {
		tu := NewTuple(0, row...)
		r.MustInsert(tu)
		if b := ix.Add(tu); b != bucketOf(tu) {
			t.Fatalf("Add returned bucket %d, the tuple is in %d", b, bucketOf(tu))
		}
		ids = append(ids, tu.ID)
	}
	check("built by Add")
	if _, c := ix.LookupIDs([]ValueID{r.Dict().InternStr("x")}); c == nil || c[0].NonNull() != 3 || c[0].Distinct() != 2 || c[1].Distinct() != 2 {
		t.Fatalf("bucket x: %+v, want 3 non-null over 2 values of v, 2 of w", c)
	}
	if ids, c := ix.LookupIDs([]ValueID{InvalidID}); ids != nil || c != nil {
		t.Fatal("an InvalidID key has no bucket")
	}
	set(ids[2], 1, S("1")) // a counted attribute alone: x becomes clean on v
	check("v: 2 → 1")
	set(ids[0], 1, NullValue) // … to null
	check("v: 1 → null")
	set(ids[0], 1, S("9")) // … and back to a value, while the inline one is taken
	check("v: null → 9")
	set(ids[1], 2, S("p")) // the other counted attribute
	check("w: q → p")
	set(ids[1], 0, S("y")) // key attribute: the tuple takes its counts along
	check("k: x → y")
	set(ids[1], 3, S("z")) // neither: nothing moves
	check("u: - → z")
	set(ids[3], 0, S("z")) // the last member but one leaves y …
	set(ids[1], 0, S("z")) // … and the last: y's number is free, z keeps its own
	check("k: y → z, emptying y")
	for _, id := range ids[:3] {
		tu := r.Tuple(id)
		was := bucketOf(tu)
		r.Delete(id)
		if b := ix.Remove(tu); b != was {
			t.Fatalf("Remove returned bucket %d, the tuple was in %d", b, was)
		}
		if members, counts := ix.BucketAt(was); len(members) == 0 && (counts[0].NonNull() != 0 || counts[1].Distinct() != 0) {
			t.Fatalf("emptied bucket %d still tallies %+v", was, counts)
		}
		check("removed")
	}
	if rebuilt := NewCountedHashIndex(r, []int{0}, counted...); rebuilt.Len() != ix.Len() {
		t.Fatalf("maintained index has %d buckets, a rebuilt one %d", ix.Len(), rebuilt.Len())
	}
	// A delete moves the last tuple into the freed slot; a build over that
	// physical order still lists every bucket in id order.
	for _, row := range [][]string{{"z", "5", "p", "-"}, {"z", "6", "q", "-"}} {
		tu := NewTuple(0, row...)
		r.MustInsert(tu)
		ix.Add(tu)
	}
	gone := r.Tuple(ids[3])
	r.Delete(gone.ID)
	ix.Remove(gone)
	check("after a delete that moves a tuple")
	if ts := r.Tuples(); slices.IsSortedFunc(ts, func(a, b *Tuple) int { return int(a.ID - b.ID) }) {
		t.Fatal("the relation is still in id order; the rebuild exercises nothing")
	}
	ix = NewCountedHashIndex(r, []int{0}, counted...)
	check("rebuilt over a physical order that is not id order")
	if _, c := NewCountedHashIndex(r, []int{0}).BucketAt(0); c != nil {
		t.Fatal("a plain index has no tallies")
	}
}

// Len returns the number of distinct keys.
func (ix *HashIndex) Len() int { return ix.byKey.Len() }
