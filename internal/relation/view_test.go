package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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
	n := 3 * PageRows
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
	const n = 2*PageRows + 3
	for i := 0; i < n; i++ {
		r.MustInsert(NewTuple(0, fmt.Sprintf("v%d", i)))
	}
	r.Delete(7) // physical order is no longer id order
	v := r.Pin()
	defer v.Release()

	want := append([]*Tuple(nil), r.Tuples()...)
	cur := v.Rows()
	for i, w := range want {
		if got := cur.Next(); got == nil || got.ID != w.ID {
			t.Fatalf("row %d: got %v, want id %d", i, got, w.ID)
		}
	}
	if extra := cur.Next(); extra != nil {
		t.Fatalf("cursor returned a row past the %d rows: %v", len(want), extra)
	}

	// Seek restarts the same rows at any row, also on a page a writer has
	// dirtied since the pin (read from its pre-image).
	if _, err := r.Set(want[PageRows+1].ID, 0, S("changed")); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{n - 2, 0, 5, PageRows - 1, PageRows, PageRows + 1, 5} {
		cur.Seek(at)
		for i := at; i < len(want); i++ {
			if got := cur.Next(); got != want[i] {
				t.Fatalf("seek to %d, row %d: got %v, want %v", at, i, got, want[i])
			}
		}
		if extra := cur.Next(); extra != nil {
			t.Fatalf("seek to %d: a row past the %d rows: %v", at, len(want), extra)
		}
	}
}

func TestViewFuzzAgainstBufferedDump(t *testing.T) {
	// Randomized mutation sequences with views pinned at arbitrary
	// points: every view must replay byte-identically to the buffered
	// dump captured at its pin instant, regardless of what the writer
	// does afterwards, each time it is dumped. After every step a fresh
	// view must dump what the uncached WriteCSV writes: the page cache may
	// serve a page only while no write has touched it. The schedule grows,
	// shrinks below one page and regrows, runs stretches with no view
	// pinned (the writer's lock-free path), and goes on in a clone.
	rng := rand.New(rand.NewSource(7))
	r := New(MustSchema("r", "A", "B"))
	var live []TupleID
	insert := func() {
		tu := NewTuple(0, fmt.Sprintf("a%d", rng.Intn(50)), fmt.Sprintf("b%d", rng.Intn(50)))
		r.MustInsert(tu)
		live = append(live, tu.ID)
	}
	for i := 0; i < 1500; i++ {
		insert()
	}
	type pinned struct {
		v    *View
		want []byte
	}
	var pins []pinned
	releaseAll := func() {
		for _, p := range pins {
			p.v.Release()
		}
		pins = nil
	}
	var cached, encoded, lockFree int
	for step := 0; step < 6000; step++ {
		inserts, deletes := 4, 7 // out of 10: balanced
		switch {
		case step >= 1500 && step < 3000:
			inserts, deletes = 1, 8 // shrink below one page
		case step >= 4000:
			inserts, deletes = 6, 8 // regrow
		}
		if step == 3500 {
			releaseAll()
			r = r.Clone() // ids and order kept; the cache starts empty
		}
		if len(pins) == 0 {
			lockFree++
		}
		switch op := rng.Intn(10); {
		case op < inserts:
			insert()
		case op < deletes && len(live) > 0:
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
			switch k := rng.Intn(len(pins) + 1); {
			case len(pins) < 6 && rng.Intn(2) == 0:
				pins = append(pins, pinned{v: r.Pin(), want: dumpLive(t, r)})
			case rng.Intn(4) == 0:
				releaseAll()
			case k < len(pins):
				if got := dumpView(t, pins[k].v); !bytes.Equal(got, pins[k].want) {
					t.Fatalf("step %d: pin at version %d drifted from its buffered dump", step, pins[k].v.Version())
				}
				pins[k].v.Release()
				pins[k] = pins[len(pins)-1]
				pins = pins[:len(pins)-1]
			}
		}
		v := r.Pin()
		var got bytes.Buffer
		c, e, err := v.WriteCSVPages(&got)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
		cached, encoded = cached+c, encoded+e
		if !bytes.Equal(got.Bytes(), dumpLive(t, r)) {
			t.Fatalf("step %d: a fresh view at version %d dumps other bytes than WriteCSV", step, r.Version())
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
	t.Logf("%d pages from the cache, %d encoded, %d steps on the lock-free path", cached, encoded, lockFree)
	if cached == 0 || lockFree < 500 {
		t.Fatalf("%d cached pages and %d lock-free steps: the schedule no longer exercises the cache", cached, lockFree)
	}
}

// TestViewCacheAfterRewoundVersion: RestoreJournalMarks may move the
// version back; a write then lands on a version whose stamp a cached page
// already carries, and the cache must not take the page for unchanged.
func TestViewCacheAfterRewoundVersion(t *testing.T) {
	r := New(MustSchema("r", "A"))
	for i := 0; i < 10; i++ {
		r.MustInsert(NewTuple(0, fmt.Sprintf("v%d", i)))
	}
	dump := func() {
		v := r.Pin()
		dumpView(t, v)
		v.Release()
	}
	dump() // caches page 0 at stamp 10
	r.RestoreJournalMarks(r.NextID(), 5)
	// The same page again, before any write at the rewound version; then
	// five writes stamp page 0 with 6, …, 10.
	dump()
	for i := 0; i < 5; i++ {
		if _, err := r.Set(1, 0, S(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v := r.Pin()
	defer v.Release()
	if got, want := dumpView(t, v), dumpLive(t, r); !bytes.Equal(got, want) {
		t.Fatalf("dump after a rewound version:\n got %q\nwant %q", got, want)
	}
}

func TestViewConcurrentReadersUnderWriter(t *testing.T) {
	// Writer-context discipline as increpair.Session uses it: one mutex
	// serializes mutations and pins; readers stream page-wise while the
	// writer keeps mutating. Run with -race to validate the viewMu
	// protocol.
	r := New(MustSchema("r", "A", "B"))
	var mu sync.Mutex // the "session mutex": orders mutations and pins
	for i := 0; i < 4*PageRows; i++ {
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

	// Each view is dumped twice: the readers share the relation's page
	// cache, so pages come from it as well as from the encoder.
	var cached atomic.Int64
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for rep := 0; rep < 8; rep++ {
				v, want := pin()
				for range 2 {
					var b bytes.Buffer
					c, _, err := v.WriteCSVPages(&b)
					if err != nil {
						t.Error(err)
					}
					cached.Add(int64(c))
					if !bytes.Equal(b.Bytes(), want) {
						t.Errorf("reader %d rep %d: streamed view != buffered dump at pin time", g, rep)
					}
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
	if cached.Load() == 0 {
		t.Fatal("no dump took a page from the cache")
	}
}
