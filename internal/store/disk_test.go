package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

func testRelation(t testing.TB) *relation.Relation {
	t.Helper()
	s, err := relation.NewSchema("r", "a", "b", "c")
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return relation.New(s)
}

// drain reads the iterator to exhaustion.
func drain(t *testing.T, it *Iterator) []wal.SnapTuple {
	t.Helper()
	var out []wal.SnapTuple
	for {
		st, ok, err := it.Next()
		if err != nil {
			t.Fatalf("iterator: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, st)
	}
}

// expect compares the store's streamed rows against the relation's
// physical order.
func expect(t *testing.T, rel *relation.Relation, got []wal.SnapTuple) {
	t.Helper()
	want := rel.Tuples()
	if len(got) != len(want) {
		t.Fatalf("streamed %d rows, relation has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID {
			t.Fatalf("row %d: id %d, want %d", i, g.ID, w.ID)
		}
		if !relation.StrictEqVals(g.Vals, w.Vals) {
			t.Fatalf("row %d: vals %v, want %v", i, g.Vals, w.Vals)
		}
		if (g.W == nil) != (w.W == nil) {
			t.Fatalf("row %d: weight presence %v, want %v", i, g.W != nil, w.W != nil)
		}
		for a := range g.W {
			if g.W[a] != w.W[a] {
				t.Fatalf("row %d attr %d: weight %v, want %v", i, a, g.W[a], w.W[a])
			}
		}
	}
}

func flushCommit(t *testing.T, d *Disk, rel *relation.Relation, gen uint64) {
	t.Helper()
	f := d.BeginFlush(rel.Pin())
	if err := f.Commit(gen); err != nil {
		t.Fatalf("commit gen %d: %v", gen, err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	d.Attach(rel)

	wt := relation.NewTuple(0, "x", "y", "z")
	wt.SetWeight(1, 0.25)
	rel.MustInsert(wt)
	rel.MustInsert(&relation.Tuple{Vals: []relation.Value{relation.S("a"), relation.NullValue, relation.S("c")}})
	for i := 0; i < 500; i++ {
		if _, err := rel.InsertRow("k", "v", "w"); err != nil {
			t.Fatal(err)
		}
	}
	flushCommit(t, d, rel, 0)

	// Mutate across the boundary: updates, deletes, inserts.
	if _, err := rel.Set(1, 0, relation.S("x2")); err != nil {
		t.Fatal(err)
	}
	rel.Delete(2)
	if _, err := rel.InsertRow("new", "row", "!"); err != nil {
		t.Fatal(err)
	}
	flushCommit(t, d, rel, 1)
	d.Close()

	d2, err := Open(dir, 1, 3, Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d2.Close()
	it, err := d2.Source()
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	expect(t, rel, drain(t, it))

	// The previous generation must remain a readable fallback.
	d1, err := Open(dir, 0, 3, Options{})
	if err != nil {
		t.Fatalf("open previous gen: %v", err)
	}
	defer d1.Close()
	it1, err := d1.Source()
	if err != nil {
		t.Fatalf("source previous gen: %v", err)
	}
	if n := len(drain(t, it1)); n != 502 {
		t.Fatalf("previous generation streams %d rows, want 502", n)
	}
}

func TestDiskDictOrphanTailTruncated(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(rel)
	rel.MustInsert(relation.NewTuple(0, "p", "q", "r"))
	flushCommit(t, d, rel, 0)
	d.Close()

	// A crash between dict append and manifest commit leaves orphan
	// entries past the manifest's dictLen; reopening must truncate them
	// so later appends land at the right ordinals.
	path := filepath.Join(dir, "dict.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{3, 'z', 'z', 'z'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	d2, err := Open(dir, 0, 3, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("orphan dict tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	it, err := d2.Source()
	if err != nil {
		t.Fatal(err)
	}
	expect(t, rel, drain(t, it))
	d2.Close()
}

func TestDiskAbortRemerges(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(rel)
	rel.MustInsert(relation.NewTuple(0, "a", "b", "c"))
	f := d.BeginFlush(rel.Pin())
	// Newer write to the same page supersedes the aborted copy.
	if _, err := rel.Set(1, 2, relation.S("c2")); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	if rel.ActiveViews() != 0 {
		t.Fatalf("abort leaked the pinned view")
	}
	flushCommit(t, d, rel, 0)
	d.Close()

	d2, err := Open(dir, 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	it, err := d2.Source()
	if err != nil {
		t.Fatal(err)
	}
	expect(t, rel, drain(t, it))
}

func TestDiskStats(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel)
	for i := 0; i < 1000; i++ {
		if _, err := rel.InsertRow("a", "b", "c"); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.DirtyPages == 0 {
		t.Fatalf("expected dirty pages before flush, got %+v", s)
	}
	flushCommit(t, d, rel, 0)
	s := d.Stats()
	if s.DirtyPages != 0 || s.Pages == 0 || s.Tuples != 1000 || s.DictEntries != 3 || s.DiskBytes == 0 {
		t.Fatalf("unexpected stats after flush: %+v", s)
	}
}

// reopen opens generation gen of dir beside whatever store is live on it
// (every dictionary entry the manifest counts is already in dict.log, so
// the orphan-tail truncation is a no-op) and holds it to want: the rows
// in want's physical order, and a page table of exactly the pages below
// the row count.
func reopen(t *testing.T, dir string, gen uint64, want *relation.Relation) {
	t.Helper()
	d, err := Open(dir, gen, 3, Options{})
	if err != nil {
		t.Fatalf("open gen %d: %v", gen, err)
	}
	defer d.Close()
	it, err := d.Source()
	if err != nil {
		t.Fatalf("source gen %d: %v", gen, err)
	}
	expect(t, want, drain(t, it))
	live := d.pagesFor(want.Size())
	for no := range d.table {
		if no >= live {
			t.Fatalf("gen %d: page %d committed, %d rows fill %d pages", gen, no, want.Size(), live)
		}
	}
	if uint64(len(d.table)) != live {
		t.Fatalf("gen %d: %d pages committed, %d rows fill %d", gen, len(d.table), want.Size(), live)
	}
}

// An aborted flush's pages belong to the flush behind it, not to the
// dirty set: that flush commits next, and its generation must carry them
// — also when a write after both boundaries has touched the same page
// again (before PR 20 the store held page images, took the re-dirtied
// image to supersede the aborted one, and committed the later generation
// without the page).
func TestAbortBehindALaterFlush(t *testing.T) {
	for name, third := range map[string]relation.TupleID{"third write elsewhere": 150, "third write on the aborted page": 2} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rel := testRelation(t)
			d, err := Create(dir, 3, Options{PageSize: MinPageSize})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			d.Attach(rel)
			for i := 0; i < 300; i++ {
				if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
					t.Fatal(err)
				}
			}
			flushCommit(t, d, rel, 0)
			set := func(id relation.TupleID, v string) {
				t.Helper()
				if _, err := rel.Set(id, 1, relation.S(v)); err != nil {
					t.Fatal(err)
				}
			}

			set(1, "first page")
			a := d.BeginFlush(rel.Pin())
			set(300, "last page")
			atB := rel.Clone()
			b := d.BeginFlush(rel.Pin())
			set(third, "after both boundaries")
			a.Abort()
			if err := b.Commit(1); err != nil {
				t.Fatalf("commit behind an abort: %v", err)
			}
			reopen(t, dir, 1, atB)

			flushCommit(t, d, rel, 2)
			reopen(t, dir, 2, rel)
		})
	}
}

// Random insert/Set/Delete schedules with one or two flushes in flight,
// resolved in FIFO order by a random Commit or Abort: every committed
// generation reopens to the relation as it stood at its BeginFlush.
func TestFlushSchedulesReopenToTheirBoundary(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runSchedule(t, t.TempDir(), seed)
	}
}

func runSchedule(t *testing.T, dir string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel)

	type inFlight struct {
		f    *Flush
		gen  uint64
		want *relation.Relation
	}
	var pending []inFlight
	var nextGen uint64
	resolve := func() {
		p := pending[0]
		pending = pending[1:]
		if rng.Intn(3) == 0 {
			p.f.Abort()
			return
		}
		if err := p.f.Commit(p.gen); err != nil {
			t.Fatalf("seed %d: commit gen %d: %v", seed, p.gen, err)
		}
		reopen(t, dir, p.gen, p.want)
	}
	randomID := func() relation.TupleID { return rel.Tuples()[rng.Intn(rel.Size())].ID }
	val := func() string { return strconv.Itoa(rng.Intn(40)) }

	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(100); {
		case op < 45 || rel.Size() == 0:
			tu := relation.NewTuple(0, val(), val(), val())
			if rng.Intn(4) == 0 {
				tu.SetWeight(rng.Intn(3), rng.Float64())
			}
			rel.MustInsert(tu)
		case op < 70:
			v := relation.S(val())
			if rng.Intn(8) == 0 {
				v = relation.NullValue
			}
			if _, err := rel.Set(randomID(), rng.Intn(3), v); err != nil {
				t.Fatal(err)
			}
		case op < 92:
			rel.Delete(randomID())
		case op < 94:
			// Delete a page's worth of rows, so that the row count drops
			// past a page boundary and the next commit drops a page.
			for i := uint64(0); i < d.rowsPerPage && rel.Size() > 0; i++ {
				rel.Delete(randomID())
			}
		default:
			if len(pending) == 2 || (len(pending) == 1 && rng.Intn(2) == 0) {
				resolve()
			}
			pending = append(pending, inFlight{d.BeginFlush(rel.Pin()), nextGen, rel.Clone()})
			nextGen++
		}
	}
	for len(pending) > 0 {
		resolve()
	}
	if rel.ActiveViews() != 0 {
		t.Fatalf("seed %d: %d pinned views leaked", seed, rel.ActiveViews())
	}
}

// Page files live for as long as a page of the two newest manifests is
// in them; manifests only for the current generation and the one before
// it, whatever pages the older rotations still hold. No order file is
// written.
func TestDiskPrunesOrderFilesAndManifests(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel)
	var prev *relation.Relation
	for gen := uint64(0); gen < 5; gen++ {
		// Insert-only: every rotation's page file keeps a page that is
		// never dirtied again.
		prev = rel.Clone()
		for i := 0; i < 200; i++ {
			if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		}
		flushCommit(t, d, rel, gen)
	}
	names := func(pattern string) []string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for i := range m {
			m[i] = filepath.Base(m[i])
		}
		return m
	}
	if got := names("order-*"); len(got) != 0 {
		t.Errorf("order files %v, want none", got)
	}
	if got, want := names("manifest-*"), []string{manifestName(3), manifestName(4)}; !slices.Equal(got, want) {
		t.Errorf("manifests %v, want %v", got, want)
	}
	if got := names("pages-*"); len(got) != 5 {
		t.Errorf("page files %v, want all five: each still holds a live page", got)
	}
	reopen(t, dir, 4, rel)
	reopen(t, dir, 3, prev)
}

// committedStore writes a one-generation store of two rows to a fresh
// directory and closes it.
func committedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(rel)
	rel.MustInsert(relation.NewTuple(0, "p", "q", "r"))
	rel.MustInsert(relation.NewTuple(0, "s", "t", "u"))
	flushCommit(t, d, rel, 0)
	d.Close()
	return dir
}

// TestOpenRefusesOversizedDictEntry: dict.log's lengths are unframed, so
// a damaged one can claim more bytes than the file holds. Open reports
// that as corruption — recovery then skips the tenant — instead of
// allocating what it claims (1 TiB here), which killed the process.
func TestOpenRefusesOversizedDictEntry(t *testing.T) {
	dir := committedStore(t)
	path := filepath.Join(dir, dictName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := len(dictMagic) + 1
	_, first := binary.Uvarint(b[hdr:])
	bad := append(binary.AppendUvarint(slices.Clone(b[:hdr]), 1<<40), b[hdr+first:]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 3, Options{}); !errors.Is(err, errCorrupt) {
		t.Fatalf("open with a 1 TiB dict entry: %v, want errCorrupt", err)
	}
}

// TestOpenRefusesRowWidth: a row's width follows from the arity, and the
// iterator slices rows by the manifest's width; a manifest whose width
// disagrees is corrupt.
func TestOpenRefusesRowWidth(t *testing.T) {
	dir := committedStore(t)
	path := filepath.Join(dir, manifestName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	geom, table, dictLen, rows, err := decodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	geom.rowWidth = 1
	geom.pageBytes = int(geom.rowsPerPage)
	if err := os.WriteFile(path, encodeManifest(geom, table, dictLen, rows), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 3, Options{}); !errors.Is(err, errCorrupt) {
		t.Fatalf("open with row width 1 at arity 3: %v, want errCorrupt", err)
	}
}

// Ten rotations of a sliding window: each deletes the oldest tenth of
// 20 000 rows and inserts as many. A delete moves the last row into the
// vacated position, so the rows keep filling the low pages and the page
// table never outgrows ⌈rows/rowsPerPage⌉; every generation reopens to
// the relation.
func TestChurnKeepsPageTableToRowCount(t *testing.T) {
	const rows, window = 20000, 2000
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel)
	insert := func(i int) {
		if _, err := rel.InsertRow(strconv.Itoa(i%97), strconv.Itoa(i%13), strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		insert(i)
	}
	oldest := relation.TupleID(1)
	for gen := uint64(0); gen <= 10; gen++ {
		if gen > 0 {
			for i := 0; i < window; i++ {
				if !rel.Delete(oldest) {
					t.Fatalf("no tuple %d to delete", oldest)
				}
				oldest++
				insert(int(gen)*window + rows + i)
			}
		}
		flushCommit(t, d, rel, gen)
		s := d.Stats()
		if want := int(d.pagesFor(rel.Size())); s.Pages != want {
			t.Fatalf("rotation %d: %d pages committed, %d rows fill %d", gen, s.Pages, rel.Size(), want)
		}
		t.Logf("rotation %2d: %d pages, %.1f B/row", gen, s.Pages, float64(s.DiskBytes)/float64(s.Tuples))
		reopen(t, dir, gen, rel)
	}
}

// One Set on a 100 000-row relation dirties one page, and the flush
// writes that page and the manifest: no order file, one page record.
func TestFlushOfOneDirtyPageWritesOnePage(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel)
	for i := 0; i < 100000; i++ {
		if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	flushCommit(t, d, rel, 0)
	if _, err := rel.Set(54321, 0, relation.S("changed")); err != nil {
		t.Fatal(err)
	}
	flushCommit(t, d, rel, 1)
	if m, _ := filepath.Glob(filepath.Join(dir, "order-*")); len(m) != 0 {
		t.Fatalf("flush wrote %v", m)
	}
	b, err := os.ReadFile(filepath.Join(dir, pagesName(1)))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(b)
	if err := wal.CheckHeader(r, pageMagic, storeVersion); err != nil {
		t.Fatal(err)
	}
	records := 0
	for r.Len() > 0 {
		if _, err := r.Seek(8, io.SeekCurrent); err != nil {
			t.Fatal(err)
		}
		if _, err := wal.ExpectFrame(r, d.pageBytes); err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		records++
	}
	if records != 1 {
		t.Fatalf("the flush of one dirty page wrote %d page records", records)
	}
	reopen(t, dir, 1, rel)
}

// TestOpenRefusesVersion1: store files of the format that filed rows by
// tuple id beside an order file are refused as corrupt, not misread.
func TestOpenRefusesVersion1(t *testing.T) {
	dir := committedStore(t)
	path := filepath.Join(dir, manifestName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(manifestMagic)] = 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 3, Options{}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open of a version-1 manifest: %v, want wal.ErrCorrupt", err)
	}
}

// BenchmarkFlushOneDirtyPage times one Set and the flush that commits its
// page, at three relation sizes: a flush's cost follows its dirty pages,
// not the relation.
func BenchmarkFlushOneDirtyPage(b *testing.B) {
	for _, n := range []int{10000, 100000, 400000} {
		b.Run(strconv.Itoa(n/1000)+"k", func(b *testing.B) {
			rel := testRelation(b)
			d, err := Create(b.TempDir(), 3, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			d.Attach(rel)
			for i := 0; i < n; i++ {
				if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.BeginFlush(rel.Pin()).Commit(0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rel.Set(relation.TupleID(n/2), 0, relation.S(strconv.Itoa(i%2))); err != nil {
					b.Fatal(err)
				}
				if err := d.BeginFlush(rel.Pin()).Commit(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
