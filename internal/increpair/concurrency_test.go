package increpair

import (
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// The Session concurrency battery: these tests exist to run under -race
// (CI does) and pin the contract of session.go — mutations serialize,
// snapshot reads are lock-free and never observe a half-applied batch,
// and Close is safe against racing readers and writers.

// TestSessionConcurrentApplyAndRead races many writers (ApplyDelta),
// snapshot readers (Snapshot/Satisfied/Stats), and structure readers
// (Violations, Dump) against one session.
func TestSessionConcurrentApplyAndRead(t *testing.T) {
	d := cleanPaperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	sess, err := NewSession(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const writers, batches, perBatch = 4, 6, 3
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot readers: spin until writers finish; every observed
	// snapshot must be internally consistent (a completed batch never
	// leaves violations) and versions must be monotone per reader.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := sess.Snapshot()
				if sn.Version < lastVersion {
					t.Error("snapshot version went backwards")
					return
				}
				lastVersion = sn.Version
				if sn.Satisfied != (sn.Violations == 0) {
					t.Errorf("snapshot inconsistent: satisfied=%v violations=%d", sn.Satisfied, sn.Violations)
					return
				}
				_, _, _, _ = sess.Stats()
				_ = sess.Satisfied()
			}
		}()
	}
	// One structure reader exercising the locked read path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v, err := sess.ReadView(); err == nil {
				_, _ = v.Violations(cfd.AnyVio(), 0, 0)
				v.Release()
			}
		}
	}()

	var applied atomic.Int64
	var werr atomic.Value
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < batches; b++ {
				if _, err := sess.ApplyDelta(randomDelta(rng, perBatch)); err != nil {
					werr.Store(err)
					return
				}
				applied.Add(1)
			}
		}(int64(100 + w))
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if err, ok := werr.Load().(error); ok {
		t.Fatal(err)
	}

	sn := sess.Snapshot()
	if sn.Batches != writers*batches || sn.Inserted != writers*batches*perBatch {
		t.Fatalf("snapshot counted %d batches / %d tuples, want %d / %d",
			sn.Batches, sn.Inserted, writers*batches, writers*batches*perBatch)
	}
	if !sess.Satisfied() || !cfd.Satisfies(sess.Current(), sigma) {
		t.Fatal("session inconsistent after concurrent applies")
	}
}

// TestSessionConcurrentClose races Close against writers and readers:
// nothing may panic, applies observed after the close fail cleanly, and
// the final snapshot is marked Closed.
func TestSessionConcurrentClose(t *testing.T) {
	d := cleanPaperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	sess, err := NewSession(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < 8; b++ {
				if _, err := sess.ApplyDelta(randomDelta(rng, 2)); err != nil {
					if err != errClosed {
						t.Errorf("unexpected apply error: %v", err)
					}
					return
				}
			}
		}(int64(7 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			_ = sess.Snapshot()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess.Close()
		sess.Close() // idempotent
	}()
	wg.Wait()

	if sn := sess.Snapshot(); !sn.Closed {
		t.Fatal("final snapshot not marked closed")
	}
	if _, err := sess.ApplyDelta(randomDelta(rand.New(rand.NewSource(1)), 1)); err != errClosed {
		t.Fatalf("apply after close: got %v, want errClosed", err)
	}
}

// TestSessionApplyOps covers the mixed-batch entry point: deletes, cell
// updates re-cleaned through the engine, and inserts in one pass, plus
// the validate-before-mutate guarantee.
func TestSessionApplyOps(t *testing.T) {
	d := cleanPaperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	sess, err := NewSession(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	size0 := sess.Snapshot().Size
	victim := sess.Current().Tuples()[0].ID

	// A set that dirties CT on a tuple matching phi2's 19014 row must be
	// repaired back to consistency; the delete shrinks the relation; the
	// insert arrives as usual.
	res, deleted, err := sess.ApplyOps(
		[]relation.TupleID{victim},
		[]SetOp{{ID: sess.Current().Tuples()[1].ID, Attr: 6, Value: relation.S("PHL")}},
		[]*relation.Tuple{t5()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 {
		t.Fatalf("deleted = %d, want 1", deleted)
	}
	// One updated tuple re-cleaned + one insert = two tuples through the
	// engine; net size: -1 (delete) +1 (insert), update is net zero.
	if len(res.Inserted) != 2 {
		t.Fatalf("engine pass repaired %d tuples, want 2", len(res.Inserted))
	}
	sn := sess.Snapshot()
	if sn.Size != size0 {
		t.Fatalf("size = %d, want %d", sn.Size, size0)
	}
	if !sn.Satisfied || !cfd.Satisfies(sess.Current(), sigma) {
		t.Fatal("ApplyOps left violations")
	}
	if sn.Deleted != 1 {
		t.Fatalf("snapshot deleted = %d, want 1", sn.Deleted)
	}

	// Validation failures must not mutate anything.
	ver := sess.Snapshot().Version
	if _, _, err := sess.ApplyOps([]relation.TupleID{999999}, nil, nil); err == nil {
		t.Fatal("delete of unknown id must fail")
	}
	if _, _, err := sess.ApplyOps(nil, []SetOp{{ID: 999999, Attr: 0, Value: relation.S("x")}}, nil); err == nil {
		t.Fatal("set on unknown id must fail")
	}
	if _, _, err := sess.ApplyOps(nil, []SetOp{{ID: victim, Attr: 99, Value: relation.S("x")}}, nil); err == nil {
		t.Fatal("set with out-of-range attr must fail")
	}
	id := sess.Current().Tuples()[0].ID
	if _, _, err := sess.ApplyOps([]relation.TupleID{id}, []SetOp{{ID: id, Attr: 0, Value: relation.S("x")}}, nil); err == nil {
		t.Fatal("set on tuple deleted in the same batch must fail")
	}
	// Insert validation is part of the same untouched-on-error contract:
	// a bad insert must not let earlier deletes/sets of the batch land.
	live := sess.Current().Tuples()[0].ID
	if _, _, err := sess.ApplyOps([]relation.TupleID{live}, nil,
		[]*relation.Tuple{relation.NewTuple(0, "only", "three", "vals")}); err == nil {
		t.Fatal("bad insert arity must fail the whole batch")
	}
	dupA, dupB := t5(), t5()
	dupA.ID, dupB.ID = 777777, 777777
	if _, _, err := sess.ApplyOps(nil, nil, []*relation.Tuple{dupA, dupB}); err == nil {
		t.Fatal("duplicate explicit insert ids must fail")
	}
	dup := t5()
	dup.ID = live
	if _, _, err := sess.ApplyOps(nil, nil, []*relation.Tuple{dup}); err == nil {
		t.Fatal("insert id colliding with a live tuple must fail")
	}
	// Mixing id-less inserts with explicit ids at/beyond the watermark
	// would let the auto-assigner take the explicit tuple's slot first
	// and silently renumber it; the batch must be rejected. Either style
	// alone is fine.
	beyond := t5()
	beyond.ID = sess.Current().NextID()
	if _, _, err := sess.ApplyOps(nil, nil, []*relation.Tuple{t5(), beyond}); err == nil {
		t.Fatal("mixed id-less + above-watermark batch must fail")
	}
	if _, _, err := sess.ApplyOps(nil, []SetOp{{ID: live, Attr: 0, Value: relation.S("x")}},
		[]*relation.Tuple{dup}); err == nil {
		t.Fatal("insert id colliding with a same-batch update must fail")
	}
	if got := sess.Snapshot().Version; got != ver {
		t.Fatalf("failed validation mutated the relation (version %d -> %d)", ver, got)
	}
	if sess.Current().Tuple(live) == nil {
		t.Fatal("failed batch applied its delete")
	}
	// Reusing a slot the batch itself frees by deletion is allowed.
	freed := t5()
	freed.ID = live
	if _, _, err := sess.ApplyOps([]relation.TupleID{live}, nil, []*relation.Tuple{freed}); err != nil {
		t.Fatalf("insert into same-batch-freed id: %v", err)
	}
	if !sess.Satisfied() {
		t.Fatal("freed-slot reuse left violations")
	}
}

// TestSessionDumpMatchesWriteCSV: Dump must serialize exactly what
// WriteCSV over Current yields when the session is quiescent.
func TestSessionDumpMatchesWriteCSV(t *testing.T) {
	d := cleanPaperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	sess, err := NewSession(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ApplyDelta(randomDelta(rand.New(rand.NewSource(4)), 6)); err != nil {
		t.Fatal(err)
	}
	var a, b stringsBuilder
	if err := sess.Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteCSV(sess.Current(), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Dump and WriteCSV diverged")
	}
	sess.Close()
	if err := sess.Dump(&a); err != errClosed {
		t.Fatalf("Dump after close: got %v, want errClosed", err)
	}
	if _, err := sess.ReadView(); err != errClosed {
		t.Fatalf("ReadView after close: got %v, want errClosed", err)
	}
}

// TestWriteCSVAllocs: a read-out allocates a few headers (the block comes
// from a pool, and a pinned view's unchanged pages from the relation's
// page cache) — the same handful at 1 000 rows and at 20 000. A dump taken
// after one row of the first page changed encodes that page alone, and
// allocates alike at both sizes too. Twenty runs each: the race detector
// makes the pool drop a quarter of what it is given, and AllocsPerRun
// truncates the average.
func TestWriteCSVAllocs(t *testing.T) {
	allocs := func(rows int) (writeCSV, dump, changed float64) {
		c := newGenChurn(t, rows, 7)
		sess := c.open(t, rows, nil)
		defer sess.Close()
		cur := sess.Current()
		writeCSV = testing.AllocsPerRun(20, func() {
			if err := relation.WriteCSV(cur, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		dump = testing.AllocsPerRun(20, func() {
			if err := sess.Dump(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		// TT is in no rule of Σ, so the change leaves the session clean.
		id := cur.Tuples()[0].ID
		var ms runtime.MemStats
		var n uint64
		for i := range 20 {
			if _, err := cur.Set(id, gen.ATT, relation.S(strconv.Itoa(i))); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if err := sess.Dump(io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			n += ms.Mallocs - before
		}
		return writeCSV, dump, float64(n / 20)
	}
	w1, d1, c1 := allocs(1000)
	w20, d20, c20 := allocs(20000)
	if w1 != w20 || d1 != d20 || w1 > 2 || d1 > 6 {
		t.Errorf("allocations WriteCSV %v → %v, Session.Dump %v → %v at 1 000 → 20 000 rows; want equal and at most 2 and 6", w1, w20, d1, d20)
	}
	if c1 != c20 {
		t.Errorf("a dump after one changed row allocates %v → %v at 1 000 → 20 000 rows; want equal", c1, c20)
	}
	t.Logf("allocations: WriteCSV %v, Session.Dump %v, Session.Dump after one changed row %v", w1, d1, c1)
}

// stringsBuilder avoids importing strings/bytes just for a writer.
type stringsBuilder struct{ b []byte }

func (s *stringsBuilder) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *stringsBuilder) String() string              { return string(s.b) }
