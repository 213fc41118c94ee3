package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// dumpLive captures WriteCSV of the live relation.
func dumpLive(t *testing.T, r *Relation) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteCSV(r, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// dumpView captures the pinned view's streamed CSV.
func dumpView(t *testing.T, v *View) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := v.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestViewIsolatesReadersFromMutations(t *testing.T) {
	r := New(MustSchema("r", "A", "B"))
	for i := 0; i < 10; i++ {
		r.MustInsert(NewTuple(0, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)))
	}
	want := dumpLive(t, r)

	v := r.Pin()
	if v.Len() != 10 || v.Version() != r.Version() {
		t.Fatalf("view Len=%d Version=%d, want 10/%d", v.Len(), v.Version(), r.Version())
	}

	// Dirty the relation every way a writer can: in-place set, delete
	// (swap-compaction), and inserts past the pinned length.
	if _, err := r.Set(3, 1, S("mutated")); err != nil {
		t.Fatal(err)
	}
	r.Delete(1)
	r.Delete(9)
	for i := 0; i < 25; i++ {
		r.MustInsert(NewTuple(0, "new", fmt.Sprintf("n%d", i)))
	}

	if got := dumpView(t, v); !bytes.Equal(got, want) {
		t.Fatalf("pinned view drifted under mutations:\n got %q\nwant %q", got, want)
	}
	if got := dumpLive(t, r); bytes.Equal(got, want) {
		t.Fatal("live relation did not change")
	}
	v.Release()
	if n := r.ActiveViews(); n != 0 {
		t.Fatalf("ActiveViews = %d after release, want 0", n)
	}
	v.Release() // idempotent
}

func TestViewSurvivesTruncateThenRegrow(t *testing.T) {
	// The delicate COW case: net deletes shrink the array below the
	// pinned length, then appends regrow it over slots the view can
	// still read through its pinned array.
	r := New(MustSchema("r", "A"))
	n := 3 * viewPageSize
	for i := 0; i < n; i++ {
		r.MustInsert(NewTuple(0, fmt.Sprintf("v%d", i)))
	}
	want := dumpLive(t, r)
	v := r.Pin()

	// Delete the back half (ids are 1-based and physical order is still
	// insertion order here), shrinking well below the pinned length...
	for id := TupleID(n); id > TupleID(n/2); id-- {
		if !r.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	// ...then regrow past the original length.
	for i := 0; i < 2*n; i++ {
		r.MustInsert(NewTuple(0, "regrown"))
	}

	if got := dumpView(t, v); !bytes.Equal(got, want) {
		t.Fatal("view corrupted by truncate-then-regrow")
	}
	v.Release()
}

func TestViewsShareGenerationPerVersion(t *testing.T) {
	r := New(MustSchema("r", "A"))
	r.MustInsert(NewTuple(0, "x"))

	v1 := r.Pin()
	v2 := r.Pin()
	if n := r.ActiveViews(); n != 1 {
		t.Fatalf("two pins at one version: ActiveViews = %d, want 1 shared generation", n)
	}
	r.MustInsert(NewTuple(0, "y"))
	v3 := r.Pin()
	if n := r.ActiveViews(); n != 2 {
		t.Fatalf("pin after mutation: ActiveViews = %d, want 2", n)
	}
	if v1.Version() == v3.Version() {
		t.Fatal("distinct versions expected")
	}
	v1.Release()
	if n := r.ActiveViews(); n != 2 {
		t.Fatalf("generation freed while a twin view holds it: ActiveViews = %d", n)
	}
	v2.Release()
	v3.Release()
	if n := r.ActiveViews(); n != 0 {
		t.Fatalf("ActiveViews = %d after all releases, want 0", n)
	}
}

// TestRowCursorSeesEveryRowOnce: a cursor over several pages returns
// every row of the view once, in physical order.
func TestRowCursorSeesEveryRowOnce(t *testing.T) {
	r := New(MustSchema("r", "A"))
	const n = 2*viewPageSize + 3
	for i := 0; i < n; i++ {
		r.MustInsert(NewTuple(0, fmt.Sprintf("v%d", i)))
	}
	r.Delete(7) // physical order is no longer id order
	v := r.Pin()
	defer v.Release()

	want := r.Tuples()
	cur := v.Rows()
	for i, w := range want {
		if got := cur.Next(); got == nil || got.ID != w.ID {
			t.Fatalf("row %d: got %v, want id %d", i, got, w.ID)
		}
	}
	if extra := cur.Next(); extra != nil {
		t.Fatalf("cursor returned a row past the %d rows: %v", len(want), extra)
	}
}

func TestViewFuzzAgainstBufferedDump(t *testing.T) {
	// Randomized mutation sequences with views pinned at arbitrary
	// points: every view must replay byte-identically to the buffered
	// dump captured at its pin instant, regardless of what the writer
	// does afterwards.
	rng := rand.New(rand.NewSource(7))
	r := New(MustSchema("r", "A", "B"))
	var live []TupleID
	insert := func() {
		tu := NewTuple(0, fmt.Sprintf("a%d", rng.Intn(50)), fmt.Sprintf("b%d", rng.Intn(50)))
		r.MustInsert(tu)
		live = append(live, tu.ID)
	}
	for i := 0; i < 2500; i++ {
		insert()
	}
	type pinned struct {
		v    *View
		want []byte
	}
	var pins []pinned
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			insert()
		case op < 7 && len(live) > 0:
			k := rng.Intn(len(live))
			r.Delete(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case op < 9 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			if _, err := r.Set(id, rng.Intn(2), S(fmt.Sprintf("m%d", rng.Intn(50)))); err != nil {
				t.Fatal(err)
			}
		default:
			if len(pins) < 6 {
				pins = append(pins, pinned{v: r.Pin(), want: dumpLive(t, r)})
			} else {
				k := rng.Intn(len(pins))
				pins[k].v.Release()
				pins[k] = pins[len(pins)-1]
				pins = pins[:len(pins)-1]
			}
		}
	}
	for i, p := range pins {
		if got := dumpView(t, p.v); !bytes.Equal(got, p.want) {
			t.Fatalf("pin %d (version %d) drifted from its buffered dump", i, p.v.Version())
		}
		p.v.Release()
	}
	if n := r.ActiveViews(); n != 0 {
		t.Fatalf("ActiveViews = %d at end, want 0", n)
	}
}

func TestViewConcurrentReadersUnderWriter(t *testing.T) {
	// Writer-context discipline as increpair.Session uses it: one mutex
	// serializes mutations and pins; readers stream page-wise while the
	// writer keeps mutating. Run with -race to validate the viewMu
	// protocol.
	r := New(MustSchema("r", "A", "B"))
	var mu sync.Mutex // the "session mutex": orders mutations and pins
	for i := 0; i < 4*viewPageSize; i++ {
		r.MustInsert(NewTuple(0, "base", fmt.Sprintf("b%d", i)))
	}

	pin := func() (*View, []byte) {
		mu.Lock()
		defer mu.Unlock()
		var b bytes.Buffer
		if err := WriteCSV(r, &b); err != nil {
			t.Error(err)
		}
		return r.Pin(), b.Bytes()
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() { // writer
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(99))
		id := TupleID(1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			switch rng.Intn(3) {
			case 0:
				r.MustInsert(NewTuple(0, "w", fmt.Sprintf("i%d", i)))
			case 1:
				for r.Tuple(id) == nil {
					id = (id % r.NextID()) + 1
				}
				r.Delete(id)
			case 2:
				for r.Tuple(id) == nil {
					id = (id % r.NextID()) + 1
				}
				if _, err := r.Set(id, 0, S(fmt.Sprintf("s%d", i))); err != nil {
					t.Error(err)
				}
			}
			mu.Unlock()
		}
	}()

	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for rep := 0; rep < 8; rep++ {
				v, want := pin()
				got := make([]byte, 0, len(want))
				var b bytes.Buffer
				if err := v.WriteCSV(&b); err != nil {
					t.Error(err)
				}
				got = append(got, b.Bytes()...)
				if !bytes.Equal(got, want) {
					t.Errorf("reader %d rep %d: streamed view != buffered dump at pin time", g, rep)
				}
				v.Release()
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	if n := r.ActiveViews(); n != 0 {
		t.Fatalf("ActiveViews = %d at end, want 0", n)
	}
}
