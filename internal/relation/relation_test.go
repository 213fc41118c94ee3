package relation

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestValueStrictEq(t *testing.T) {
	if StrictEq(S("x"), NullValue) {
		t.Error("null is not StrictEq to a constant")
	}
	if !StrictEq(NullValue, NullValue) {
		t.Error("null is StrictEq to null")
	}
	if !StrictEq(S("x"), S("x")) || StrictEq(S("x"), S("y")) {
		t.Error("StrictEq on constants must be string equality")
	}
}

func TestSchemaBasics(t *testing.T) {
	s, err := NewSchema("order", "id", "name", "PR")
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 3 || s.Name() != "order" {
		t.Fatalf("bad schema: %v", s)
	}
	if i := s.MustIndex("PR"); i != 2 {
		t.Errorf("MustIndex(PR) = %d, want 2", i)
	}
	if _, err := s.Index("nope"); err == nil {
		t.Error("Index(nope) should fail")
	}
	if got := s.String(); got != "order(id, name, PR)" {
		t.Errorf("String() = %q", got)
	}
	ix, err := s.Indexes("PR", "id")
	if err != nil || !reflect.DeepEqual(ix, []int{2, 0}) {
		t.Errorf("Indexes = %v, %v", ix, err)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema("r"); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := NewSchema("r", "a", "a"); err == nil {
		t.Error("duplicate attribute must fail")
	}
	if _, err := NewSchema("r", "a", ""); err == nil {
		t.Error("empty attribute name must fail")
	}
}

func TestInsertAndActiveDomain(t *testing.T) {
	r := New(MustSchema("r", "a", "b"))
	r.MustInsert(NewTuple(0, "x", "1"))
	r.MustInsert(NewTuple(0, "y", "1"))
	r.MustInsert(NewTuple(0, "x", "2"))
	if r.Size() != 3 {
		t.Fatalf("Size = %d", r.Size())
	}
	if got := r.ActiveDomain(0); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("adom(a) = %v", got)
	}
	if got := r.ActiveDomain(1); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("adom(b) = %v", got)
	}
	if n := r.DomainCount(0, "x"); n != 2 {
		t.Errorf("DomainCount(a,x) = %d", n)
	}
}

func TestInsertErrors(t *testing.T) {
	r := New(MustSchema("r", "a", "b"))
	if err := r.Insert(NewTuple(0, "only-one")); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := r.Insert(&Tuple{Vals: []Value{S("x"), S("y")}, W: []float64{1}}); err == nil {
		t.Error("weight length mismatch must fail")
	}
	r.MustInsert(NewTuple(7, "x", "y"))
	if err := r.Insert(NewTuple(7, "z", "w")); err == nil {
		t.Error("duplicate id must fail")
	}
	// Fresh ids continue past explicit ones.
	tp := NewTuple(0, "q", "r")
	r.MustInsert(tp)
	if tp.ID <= 7 {
		t.Errorf("fresh id %d should exceed explicit id 7", tp.ID)
	}
}

// TestInsertAdoptsProbeIDs: a probe inserted into the relation whose
// dictionary it was looked up in keeps its ids slice, gets for its unseen
// constants the ids interning every value in attribute order would give —
// here two cells share one — and ends up exactly as a free-standing copy
// inserted into a clone: ids, canonical values, dictionary and domains.
func TestInsertAdoptsProbeIDs(t *testing.T) {
	r := New(MustSchema("r", "a", "b", "c", "d", "e"))
	r.MustInsert(NewTuple(0, "x", "y", "z", "w", "v"))
	twin := r.Clone()

	src := NewTuple(0, "y", "new1", "x", "new2", "new1")
	src.Vals[2] = NullValue
	p := src.Probe(r.Dict())
	p.SetAt(0, r.Dict().Resolve(S("w"))) // a candidate, as TUPLERESOLVE sets one
	free := p.Clone()
	ids := p.ids
	r.MustInsert(p)
	twin.MustInsert(free)

	if &p.ids[0] != &ids[0] {
		t.Error("Insert replaced the probe's ids slice")
	}
	if !slices.Equal(p.ids, free.ids) || !StrictEqVals(p.Vals, free.Vals) {
		t.Fatalf("adopted %v %v, re-interned %v %v", p.ids, p.Vals, free.ids, free.Vals)
	}
	if r.Dict().Len() != twin.Dict().Len() || !slices.Equal(r.Dict().StringsFrom(0, 99), twin.Dict().StringsFrom(0, 99)) {
		t.Errorf("dictionary %v, re-interning gives %v", r.Dict().StringsFrom(0, 99), twin.Dict().StringsFrom(0, 99))
	}
	for a := range p.Vals {
		if !reflect.DeepEqual(r.ActiveDomain(a), twin.ActiveDomain(a)) {
			t.Errorf("adom(%d) = %v, re-interning gives %v", a, r.ActiveDomain(a), twin.ActiveDomain(a))
		}
		if id := p.IDAt(a); id != NullID && unsafe.StringData(p.Vals[a].Str) != unsafe.StringData(r.Dict().Str(id)) {
			t.Errorf("attribute %d holds its own copy of %q, not the dictionary's", a, p.Vals[a].Str)
		}
	}
}

// TestProbeFromAnotherDictionaryReinterned: ids are only meaningful in the
// dictionary they came from. A tuple probed against relation A, or owned by
// A before, carries B's ids once inserted into B, whose dictionary numbers
// the same constants differently.
func TestProbeFromAnotherDictionaryReinterned(t *testing.T) {
	a := New(MustSchema("r", "p", "q"))
	a.MustInsert(NewTuple(0, "x", "y"))
	b := New(MustSchema("r", "p", "q"))
	b.MustInsert(NewTuple(0, "y", "only-in-b"))

	probed := NewTuple(0, "x", "only-in-b").Probe(a.Dict())
	owned := NewTuple(0, "y", "x")
	a.MustInsert(owned)
	a.Delete(owned.ID)
	owned.ID = 0
	for _, tu := range []*Tuple{probed, owned} {
		b.MustInsert(tu)
		for i, v := range tu.Vals {
			if want := b.Dict().LookupValue(v); tu.IDAt(i) != want {
				t.Errorf("%v: attribute %d has id %d, B's dictionary says %d", tu, i, tu.IDAt(i), want)
			}
		}
	}
}

func TestSetMaintainsActiveDomain(t *testing.T) {
	r := New(MustSchema("r", "a"))
	t1 := NewTuple(0, "x")
	r.MustInsert(t1)
	old, err := r.Set(t1.ID, 0, S("y"))
	if err != nil || old.Str != "x" {
		t.Fatalf("Set: old=%v err=%v", old, err)
	}
	if got := r.ActiveDomain(0); !reflect.DeepEqual(got, []string{"y"}) {
		t.Errorf("adom after set = %v", got)
	}
	// Setting to null removes from the domain.
	if _, err := r.Set(t1.ID, 0, NullValue); err != nil {
		t.Fatal(err)
	}
	if got := r.ActiveDomain(0); len(got) != 0 {
		t.Errorf("adom after null = %v", got)
	}
	if _, err := r.Set(999, 0, S("z")); err == nil {
		t.Error("Set on missing tuple must fail")
	}
}

func TestDelete(t *testing.T) {
	r := New(MustSchema("r", "a"))
	t1 := NewTuple(0, "x")
	t2 := NewTuple(0, "x")
	r.MustInsert(t1)
	r.MustInsert(t2)
	if !r.Delete(t1.ID) {
		t.Fatal("Delete returned false")
	}
	if r.Size() != 1 || r.Tuple(t1.ID) != nil || r.Tuple(t2.ID) == nil {
		t.Error("delete bookkeeping wrong")
	}
	if n := r.DomainCount(0, "x"); n != 1 {
		t.Errorf("DomainCount after delete = %d", n)
	}
	if r.Delete(t1.ID) {
		t.Error("double delete should return false")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New(MustSchema("r", "a"))
	t1 := NewTuple(0, "x")
	t1.SetWeight(0, 0.5)
	r.MustInsert(t1)
	c := r.Clone()
	if _, err := c.Set(t1.ID, 0, S("y")); err != nil {
		t.Fatal(err)
	}
	if r.Tuple(t1.ID).Vals[0].Str != "x" {
		t.Error("clone mutation leaked into original")
	}
	if c.Tuple(t1.ID).Weight(0) != 0.5 {
		t.Error("clone lost weights")
	}
}

func TestTupleWeights(t *testing.T) {
	tp := NewTuple(1, "a", "b")
	if tp.Weight(0) != 1 || tp.TotalWeight() != 2 {
		t.Error("default weights must be 1")
	}
	tp.SetWeight(1, 0.25)
	if tp.Weight(0) != 1 || tp.Weight(1) != 0.25 {
		t.Error("SetWeight must preserve other weights")
	}
	if tp.TotalWeight() != 1.25 {
		t.Errorf("TotalWeight = %v", tp.TotalWeight())
	}
}

func TestTupleProjectKeyNull(t *testing.T) {
	tp := &Tuple{ID: 1, Vals: []Value{S("a"), NullValue, S("c")}}
	if !tp.HasNullOn([]int{0, 1}) || tp.HasNullOn([]int{0, 2}) {
		t.Error("HasNullOn wrong")
	}
}

func TestHashIndexLifecycle(t *testing.T) {
	r := New(MustSchema("r", "a", "b"))
	t1 := NewTuple(0, "x", "1")
	t2 := NewTuple(0, "x", "2")
	r.MustInsert(t1)
	r.MustInsert(t2)
	ix := NewCountedHashIndex(r, []int{0})
	if ids := lookup(ix, S("x")); len(ids) != 2 {
		t.Fatalf("Lookup(x) = %v", ids)
	}
	// Update t1.a -> y.
	old := t1.IDAt(0)
	if _, err := r.Set(t1.ID, 0, S("y")); err != nil {
		t.Fatal(err)
	}
	ix.Update(t1, 0, old)
	if ids := lookup(ix, S("x")); len(ids) != 1 || ids[0] != t2.ID {
		t.Errorf("Lookup(x) after update = %v", ids)
	}
	if ids := lookup(ix, S("y")); len(ids) != 1 || ids[0] != t1.ID {
		t.Errorf("Lookup(y) after update = %v", ids)
	}
	// No-op update keeps a single entry.
	ix.Update(t1, 0, t1.IDAt(0))
	if ids := lookup(ix, S("y")); len(ids) != 1 {
		t.Errorf("Lookup(y) after no-op update = %v", ids)
	}
	ix.Remove(t2)
	if ids := lookup(ix, S("x")); len(ids) != 0 {
		t.Errorf("Lookup(x) after remove = %v", ids)
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
	if !ix.Touches(0) || ix.Touches(1) {
		t.Error("Touches wrong")
	}
}

func TestHashIndexBuckets(t *testing.T) {
	r := New(MustSchema("r", "a"))
	r.MustInsert(NewTuple(0, "x"))
	r.MustInsert(NewTuple(0, "y"))
	ix := NewCountedHashIndex(r, []int{0})
	n := 0
	ix.Buckets(func(_ int32, ids []TupleID, _ []BucketCounts) { n += len(ids) })
	if n != 2 {
		t.Errorf("bucket walk saw %d ids", n)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := New(MustSchema("order", "id", "name"))
	r.MustInsert(NewTuple(0, "a23", "H. Porter"))
	r.MustInsert(&Tuple{Vals: []Value{S("a12"), NullValue}})
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("order", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 2 {
		t.Fatalf("round-trip size = %d", got.Size())
	}
	if !got.Tuples()[1].Vals[1].Null {
		t.Error("null did not survive round trip")
	}
	if got.Tuples()[0].Vals[1].Str != "H. Porter" {
		t.Error("value did not survive round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("r", strings.NewReader("")); err == nil {
		t.Error("empty CSV must fail")
	}
	if _, err := ReadCSV("r", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("short row must fail")
	}
	if _, err := ReadCSV("r", strings.NewReader("a,a\n1,2\n")); err == nil {
		t.Error("duplicate header must fail")
	}
}

func TestWeightsCSVRoundTrip(t *testing.T) {
	r := New(MustSchema("r", "a", "b"))
	t1 := NewTuple(0, "x", "y")
	t1.SetWeight(0, 0.9)
	t1.SetWeight(1, 0.1)
	r.MustInsert(t1)
	r.MustInsert(NewTuple(0, "p", "q"))
	var buf bytes.Buffer
	if err := WriteWeightsCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	fresh := r.Clone()
	for _, tp := range fresh.Tuples() {
		tp.W = nil
	}
	if err := ReadWeightsCSV(fresh, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fresh.Tuples()[0].Weight(0) != 0.9 || fresh.Tuples()[0].Weight(1) != 0.1 {
		t.Error("weights did not survive round trip")
	}
	if fresh.Tuples()[1].Weight(0) != 1 {
		t.Error("unit weights did not survive round trip")
	}
}

// weightsOf copies the weight vector of every tuple of r (nil where a tuple
// carries none).
func weightsOf(r *Relation) [][]float64 {
	var out [][]float64
	for _, tu := range r.Tuples() {
		out = append(out, slices.Clone(tu.W))
	}
	return out
}

// weightsFixture is two tuples over (a, b), the first without weights and
// the second weighing b at 0.25.
func weightsFixture() *Relation {
	r := New(MustSchema("r", "a", "b"))
	r.MustInsert(NewTuple(0, "x", "y"))
	r.MustInsert(NewTuple(0, "z", "w"))
	r.Tuples()[1].SetWeight(1, 0.25)
	return r
}

// TestReadWeightsCSVErrors: every malformed weights file is refused, and
// refused whole — no weight of it is set, whichever row or field is bad.
func TestReadWeightsCSVErrors(t *testing.T) {
	r := weightsFixture()
	cases := []string{
		"b,a\n1,1\n1,1\n",           // wrong header name
		"a,b\n1,1\n",                // too few rows
		"a,b\n1,1\n1,1\n0.5,0.5\n",  // too many rows
		"a,b\n1,nope\n1,1\n",        // unparsable weight
		"a,b\n1.5,1\n1,1\n",         // out of range
		"a,b\n0.5,0.5\n0.5,7\n",     // the last field is out of range
		"a,b\n0.5,0.5\n0.5\n",       // the last row is short
		"a,b\n0.5,0.5\n0.5,\"0.5\n", // the last row does not parse as CSV
	}
	for _, c := range cases {
		fresh := r.Clone()
		want := weightsOf(fresh)
		if err := ReadWeightsCSV(fresh, strings.NewReader(c)); err == nil {
			t.Errorf("ReadWeightsCSV(%q) should fail", c)
		}
		if got := weightsOf(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("ReadWeightsCSV(%q) failed but left weights %v, want %v", c, got, want)
		}
	}
}

// TestReadWeightsCSVRejectsNaN: NaN compares false with everything, so a
// range check written as `w < 0 || w > 1` let it in — and a NaN weight makes
// every cost NaN and every comparison between repairs false.
func TestReadWeightsCSVRejectsNaN(t *testing.T) {
	r := New(MustSchema("r", "a", "b"))
	r.MustInsert(NewTuple(0, "x", "y"))
	for _, c := range []string{"NaN,0.5", "0.5,nan", "NAN,1", "+Inf,0", "0,-Inf"} {
		fresh := r.Clone()
		err := ReadWeightsCSV(fresh, strings.NewReader("a,b\n"+c+"\n"))
		if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("ReadWeightsCSV(%q): error %v, want a weight outside [0,1] (loaded W = %v)", c, err, fresh.Tuples()[0].W)
		}
	}
}

func TestTupleString(t *testing.T) {
	tp := &Tuple{ID: 3, Vals: []Value{S("a"), NullValue}}
	if got := tp.String(); got != "t3(a, ␀)" {
		t.Errorf("String = %q", got)
	}
}
