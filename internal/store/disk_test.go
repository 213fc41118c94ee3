package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
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

// streamed is a row the iterator returned, its values resolved in the
// store's dictionary (Disk.Dict).
type streamed struct {
	wal.SnapTuple
	Vals []relation.Value
}

// drain reads the iterator to exhaustion.
func drain(t *testing.T, it *Iterator) []streamed {
	t.Helper()
	dict, err := it.d.Dict()
	if err != nil {
		t.Fatalf("dictionary: %v", err)
	}
	var out []streamed
	for {
		st, ok, err := it.Next()
		if err != nil {
			t.Fatalf("iterator: %v", err)
		}
		if !ok {
			return out
		}
		vals := make([]relation.Value, len(st.IDs))
		dict.Fill(vals, st.IDs)
		out = append(out, streamed{st, vals})
	}
}

// expect compares the store's streamed rows against the relation's
// physical order.
func expect(t *testing.T, rel *relation.Relation, got []streamed) {
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
		for a := range g.IDs {
			if g.IDs[a] != w.IDAt(a) {
				t.Fatalf("row %d attr %d: value id %d, the relation's %d", i, a, g.IDs[a], w.IDAt(a))
			}
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

// header is the session header a test flush records: a session name,
// rel's schema, a Σ text, counters and a quota.
func header(rel *relation.Relation) *wal.Snapshot {
	sch := rel.Schema()
	return &wal.Snapshot{
		Name: "tenant", Relname: sch.Name(), Attrs: sch.Attrs(),
		CFDs:     "cfd phi: [a] -> [b]\n(_ || _)\n",
		Ordering: 1, K: 2, NearestK: 3, Batches: 4, Inserted: 5, Deleted: 1, Changes: 2, Cost: 1.5,
		NextID: rel.NextID(), Version: rel.Version(),
		Quota: wal.Quota{OpsPerSec: 10, TuplesPerSec: 100.5, MaxRelationSize: 1000, MaxSubscribers: 4},
	}
}

func flushCommit(t *testing.T, d *Disk, rel *relation.Relation, gen uint64) {
	t.Helper()
	f := d.BeginFlush(header(rel), rel.Pin())
	if err := f.Commit(gen); err != nil {
		t.Fatalf("commit gen %d: %v", gen, err)
	}
}

// TestDictRefusesRepeatedEntry: a dict.log holding one constant twice
// would give every entry behind the second copy another id than the
// rows were written under, so Dict refuses it as corrupt.
func TestDictRefusesRepeatedEntry(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(rel, true)
	if _, err := rel.InsertRow("v1", "v2", "v3"); err != nil {
		t.Fatal(err)
	}
	flushCommit(t, d, rel, 0)
	d.Close()
	if d, _, err := Open(dir, 0); err != nil {
		t.Fatal(err)
	} else if _, err := d.Dict(); err != nil {
		t.Fatalf("the written dict.log: %v", err)
	} else {
		d.Close()
	}
	path := filepath.Join(dir, dictName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(b, []byte("v2"), []byte("v1"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	d, _, err = Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Dict(); !errors.Is(err, errCorrupt) {
		t.Fatalf("a dict.log holding v1 twice: %v, want a corrupt error", err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	d.Attach(rel, true)

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

	d2, snap, err := Open(dir, 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d2.Close()
	if want := header(rel); !reflect.DeepEqual(snap, want) {
		t.Fatalf("the manifest's header reads back as\n%+v\nwant\n%+v", snap, want)
	}
	it, err := d2.Source()
	if err != nil {
		t.Fatalf("source: %v", err)
	}
	expect(t, rel, drain(t, it))

	// The previous generation must remain a readable fallback.
	d1, _, err := Open(dir, 0)
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

// TestDiskDictOrphanTailTruncated: a crash between dict append and
// manifest commit leaves orphan entries past the manifest's dictLen.
// Open leaves them in place (it writes nothing), and the next commit's
// dictionary append lands at the right ordinals and cuts what it did not
// overwrite.
func TestDiskDictOrphanTailTruncated(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(rel, true)
	rel.MustInsert(relation.NewTuple(0, "p", "q", "r"))
	flushCommit(t, d, rel, 0)
	d.Close()

	path := filepath.Join(dir, "dict.log")
	committed, _ := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{30, 'z', 'z', 'z'}); err != nil { // a length longer than what follows
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	d2, _, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer d2.Close()
	if after, _ := os.Stat(path); after.Size() != before.Size() {
		t.Fatalf("open changed dict.log: %d -> %d bytes", before.Size(), after.Size())
	}
	it, err := d2.Source()
	if err != nil {
		t.Fatal(err)
	}
	expect(t, rel, drain(t, it))

	// The next commit appends one new constant, "s", at the committed end.
	d2.Attach(rel, false)
	rel.MustInsert(relation.NewTuple(0, "p", "q", "s"))
	flushCommit(t, d2, rel, 1)
	if after, _ := os.Stat(path); after.Size() != committed.Size()+2 {
		t.Fatalf("dict.log after the next commit is %d bytes, want the %d committed plus \"s\"'s 2", after.Size(), committed.Size())
	}
	d3, _, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if _, err := d3.Dict(); err != nil {
		t.Fatal(err)
	}
	it, err = d3.Source()
	if err != nil {
		t.Fatal(err)
	}
	expect(t, rel, drain(t, it))
}

// An abort leaves the committed version where it was, so the flush after
// it writes the aborted flush's pages: here a page written before the
// aborted boundary and not since.
func TestDiskAbortRemerges(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(rel, true)
	for i := 0; i < 2*relation.PageRows; i++ {
		if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	flushCommit(t, d, rel, 0)
	if _, err := rel.Set(1, 2, relation.S("c2")); err != nil {
		t.Fatal(err)
	}
	f := d.BeginFlush(header(rel), rel.Pin())
	if _, err := rel.Set(relation.PageRows+1, 2, relation.S("c3")); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	if rel.ActiveViews() != 0 {
		t.Fatalf("abort leaked the pinned view")
	}
	if s := d.Stats(); s.Gen != 0 || s.FlushPages != 2 {
		t.Fatalf("an abort moved the committed state: %+v", s)
	}
	flushCommit(t, d, rel, 1)
	if s := d.Stats(); s.FlushPages != 2 || d.table[0].gen != 1 || d.table[1].gen != 1 {
		t.Fatalf("the flush after an abort wrote %d pages, page 0 in generation %d: %+v", s.FlushPages, d.table[0].gen, s)
	}
	d.Close()

	reopen(t, dir, 1, rel)
}

func TestDiskStats(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel, true)
	for i := 0; i < 1000; i++ {
		if _, err := rel.InsertRow("a", "b", "c"); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.FlushPages != 0 || s.Pages != 0 {
		t.Fatalf("stats before the first flush: %+v", s)
	}
	flushCommit(t, d, rel, 0)
	s := d.Stats()
	if s.FlushPages != 1 || s.Pages != 1 || s.Tuples != 1000 || s.DictEntries != 3 || s.DiskBytes == 0 {
		t.Fatalf("unexpected stats after flush: %+v", s)
	}
	flushCommit(t, d, rel, 1)
	if s := d.Stats(); s.Gen != 1 || s.FlushPages != 0 || s.Pages != 1 {
		t.Fatalf("a flush with no write between commits: %+v", s)
	}
}

// A fresh store writes every page of its first flush, whatever the stamps
// read: RestoreJournalMarks, moving the version back, clears every stamp
// to 0, as a follower's install and a newly created session's relation
// may have them, and a store taking "newer than version 0" for its first
// flush would write no page.
func TestFreshStoreWritesEveryPage(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	for i := 0; i < 2*relation.PageRows+1; i++ {
		if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	rel.RestoreJournalMarks(rel.NextID(), 1)
	v := rel.Pin()
	if !slices.Equal(v.Stamps(), []uint64{0, 0, 0}) {
		t.Fatalf("stamps %v after the version moved back, want three zeros", v.Stamps())
	}
	v.Release()
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel, true)
	flushCommit(t, d, rel, 0)
	if s := d.Stats(); s.FlushPages != 3 || s.Pages != 3 {
		t.Fatalf("the first flush over zeroed stamps: %+v, want all three pages written", s)
	}
	reopen(t, dir, 0, rel)
}

// reopen opens generation gen of dir beside whatever store is live on it
// (Open writes nothing) and holds it to want: the rows
// in want's physical order, and a page table of exactly the pages below
// the row count.
func reopen(t *testing.T, dir string, gen uint64, want *relation.Relation) {
	t.Helper()
	d, _, err := Open(dir, gen)
	if err != nil {
		t.Fatalf("open gen %d: %v", gen, err)
	}
	defer d.Close()
	it, err := d.Source()
	if err != nil {
		t.Fatalf("source gen %d: %v", gen, err)
	}
	expect(t, want, drain(t, it))
	live := pagesFor(want.Size())
	for no := range d.table {
		if no >= live {
			t.Fatalf("gen %d: page %d committed, %d rows fill %d pages", gen, no, want.Size(), live)
		}
	}
	if uint64(len(d.table)) != live {
		t.Fatalf("gen %d: %d pages committed, %d rows fill %d", gen, len(d.table), want.Size(), live)
	}
}

// An aborted flush's pages are written by the flush behind it, which
// commits next against the same committed version — also when a write
// after both boundaries has touched the same page again (before PR 20 the
// store held page images, took the re-dirtied image to supersede the
// aborted one, and committed the later generation without the page).
func TestAbortBehindALaterFlush(t *testing.T) {
	const rows = 2*relation.PageRows + 300
	for name, third := range map[string]relation.TupleID{"third write elsewhere": relation.PageRows + 150, "third write on the aborted page": 2} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rel := testRelation(t)
			d, err := Create(dir, 3, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			d.Attach(rel, true)
			for i := 0; i < rows; i++ {
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
			a := d.BeginFlush(header(rel), rel.Pin())
			set(rows, "last page")
			atB := rel.Clone()
			b := d.BeginFlush(header(rel), rel.Pin())
			set(third, "after both boundaries")
			a.Abort()
			if err := b.Commit(1); err != nil {
				t.Fatalf("commit behind an abort: %v", err)
			}
			if s := d.Stats(); s.FlushPages != 2 || d.table[0].gen != 1 || d.table[1].gen != 0 {
				t.Fatalf("the flush behind an abort wrote %d pages, page 0 in generation %d: %+v", s.FlushPages, d.table[0].gen, s)
			}
			reopen(t, dir, 1, atB)

			flushCommit(t, d, rel, 2)
			reopen(t, dir, 2, rel)
		})
	}
}

// Random insert/Set/Delete schedules over three to six store pages, with
// one or two flushes in flight, resolved in FIFO order by a random Commit
// or Abort: every committed generation reopens to the relation as it
// stood at its BeginFlush. Between two boundaries most writes fall on one
// page, a new one each time, so the flushes in flight hold different
// pages; inserts append to the last page, deletes shorten it and bulk
// deletes drop it, so an aborted flush holds pages of each kind.
func TestFlushSchedulesReopenToTheirBoundary(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runSchedule(t, t.TempDir(), seed)
	}
}

func runSchedule(t *testing.T, dir string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel, true)
	rpp := relation.PageRows

	type inFlight struct {
		f    *Flush
		gen  uint64
		want *relation.Relation
	}
	var pending []inFlight
	var nextGen uint64
	var commits, aborts int
	hot := 0 // the page most writes fall on until the next boundary
	resolve := func() {
		p := pending[0]
		pending = pending[1:]
		if rng.Intn(3) == 0 {
			p.f.Abort()
			aborts++
			return
		}
		if err := p.f.Commit(p.gen); err != nil {
			t.Fatalf("seed %d: commit gen %d: %v", seed, p.gen, err)
		}
		commits++
		reopen(t, dir, p.gen, p.want)
	}
	flush := func() {
		if len(pending) == 2 || (len(pending) == 1 && rng.Intn(2) == 0) {
			resolve()
		}
		pending = append(pending, inFlight{d.BeginFlush(header(rel), rel.Pin()), nextGen, rel.Clone()})
		nextGen++
		hot = rng.Intn((rel.Size() + rpp - 1) / rpp)
	}
	// randomID picks a row of the hot page three times in four, and any
	// row otherwise.
	randomID := func() relation.TupleID {
		ts := rel.Tuples()
		if lo := hot * rpp; lo < len(ts) && rng.Intn(4) != 0 {
			return ts[lo+rng.Intn(min(rpp, len(ts)-lo))].ID
		}
		return ts[rng.Intn(len(ts))].ID
	}
	val := func() string { return strconv.Itoa(rng.Intn(40)) }
	insert := func() {
		tu := relation.NewTuple(0, val(), val(), val())
		if rng.Intn(4) == 0 {
			tu.SetWeight(rng.Intn(3), rng.Float64())
		}
		rel.MustInsert(tu)
	}
	for rel.Size() < 3*rpp+rng.Intn(rpp) {
		insert()
	}

	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(100); {
		case op < 36 && rel.Size() < 6*rpp || rel.Size() <= 2*rpp:
			insert()
		case op < 62:
			v := relation.S(val())
			if rng.Intn(8) == 0 {
				v = relation.NullValue
			}
			if _, err := rel.Set(randomID(), rng.Intn(3), v); err != nil {
				t.Fatal(err)
			}
		case op < 94:
			rel.Delete(randomID())
		case op < 95 && rel.Size() < 5*rpp:
			// Insert a page's worth of rows: the next commit adds a page.
			for range rpp {
				insert()
			}
		case op < 96 && rel.Size() > 3*rpp:
			// Delete a page's worth of rows, so that the row count drops
			// past a page boundary and the next commit drops a page.
			for range rpp {
				rel.Delete(randomID())
			}
		case op < 97:
			// Flush; then delete a row of a page before the last and
			// flush again, inserting nothing: the second flush finds the
			// last page one row shorter.
			flush()
			last := (rel.Size() - 1) / rpp * rpp
			rel.Delete(rel.Tuples()[rng.Intn(last)].ID)
			flush()
		default:
			flush()
		}
	}
	for len(pending) > 0 {
		resolve()
	}
	if rel.ActiveViews() != 0 {
		t.Fatalf("seed %d: %d pinned views leaked", seed, rel.ActiveViews())
	}
	if commits == 0 || aborts == 0 {
		t.Fatalf("seed %d: %d commits and %d aborts, want both", seed, commits, aborts)
	}
}

// Page files live for as long as a page of the two newest manifests is
// in them; manifests only for the current generation and the one before
// it, whatever pages the older rotations still hold. No order file is
// written.
func TestDiskPrunesOrderFilesAndManifests(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel, true)
	var prev *relation.Relation
	for gen := uint64(0); gen < 5; gen++ {
		// Insert-only: every rotation's page file keeps a page that is
		// never dirtied again.
		prev = rel.Clone()
		for i := 0; i < relation.PageRows; i++ {
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
	d.Attach(rel, true)
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
	if _, _, err := Open(dir, 0); !errors.Is(err, errCorrupt) {
		t.Fatalf("open with a 1 TiB dict entry: %v, want errCorrupt", err)
	}
}

// TestOpenRefusesGeometry: the iterator decodes rows of the arity the
// manifest's header states, so a manifest whose header names another
// attribute count than its pages were written at streams no row: its
// first page is corrupt.
func TestOpenRefusesGeometry(t *testing.T) {
	dir := committedStore(t)
	path := filepath.Join(dir, manifestName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, table, dictLen, rows, err := decodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	snap.Attrs = append(snap.Attrs, "d")
	if err := os.WriteFile(path, encodeManifest(snap, table, dictLen, rows), 0o644); err != nil {
		t.Fatal(err)
	}
	d, _, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	it, err := d.Source()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := it.Next(); !errors.Is(err, errCorrupt) {
		t.Fatalf("arity-3 pages read at arity 4: %v, want errCorrupt", err)
	}
}

// Ten rotations of a sliding window: each deletes the oldest tenth of
// 20 000 rows and inserts as many. A delete moves the last row into the
// vacated position, so the rows keep filling the low pages and the page
// table never outgrows ⌈rows/PageRows⌉; every generation reopens to
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
	d.Attach(rel, true)
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
		if want := int(pagesFor(rel.Size())); s.Pages != want {
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
	d.Attach(rel, true)
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
		if _, err := wal.ExpectFrame(r, pageCap(3)); err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		records++
	}
	if records != 1 {
		t.Fatalf("the flush of one dirty page wrote %d page records", records)
	}
	reopen(t, dir, 1, rel)
}

// TestOpenRefusesVersion1: store files of the formats before this one
// are refused as corrupt, not misread, with an error naming the version:
// version 1 filed rows by tuple id beside an order file, version 2 wrote
// fixed-width rows, version 3 pages of a size its manifest named, and
// version 4's manifest held no session header.
func TestOpenRefusesVersion1(t *testing.T) {
	for _, ver := range []byte{1, 2, 3, 4} {
		dir := committedStore(t)
		path := filepath.Join(dir, manifestName(0))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(manifestMagic)] = ver
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(dir, 0)
		if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", ver)) {
			t.Fatalf("open of a version-%d manifest: %v, want wal.ErrCorrupt naming the version", ver, err)
		}
	}
}

// TestPageBytes pins a page image's bytes: an unweighted arity-3 row whose
// ids take a byte each is 1 + 3 + 1 bytes — the tuple-id delta, the
// cells, the weight flag — and a weighted one 24 bytes more, a null's
// cell is 0, and the page's first row's delta is from 0.
func TestPageBytes(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel, true)
	rel.MustInsert(relation.NewTuple(0, "x", "y", "z"))
	weighted := &relation.Tuple{Vals: []relation.Value{relation.S("x"), relation.NullValue, relation.S("w")}}
	weighted.SetWeight(1, 0.25)
	rel.MustInsert(weighted)
	flushCommit(t, d, rel, 0)

	want := []byte{2, 1, 2, 3, 0, 2, 1, 0, 4, 1}
	for _, w := range []float64{1, 0.25, 1} {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(w))
	}
	b, err := os.ReadFile(filepath.Join(dir, pagesName(0)))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(b)
	if err := wal.CheckHeader(r, pageMagic, storeVersion); err != nil {
		t.Fatal(err)
	}
	var no [8]byte
	if _, err := io.ReadFull(r, no[:]); err != nil || binary.LittleEndian.Uint64(no[:]) != 0 {
		t.Fatalf("the first record is page %x: %v", no, err)
	}
	page, err := wal.ExpectFrame(r, pageCap(3))
	if err != nil || r.Len() != 0 {
		t.Fatalf("page record: %v, %d bytes behind it", err, r.Len())
	}
	if len(want) != 5+29 || !bytes.Equal(page, want) {
		t.Fatalf("page image\n%x, want\n%x", page, want)
	}
}

// A delete moves the last row into the freed position and shortens the
// last page; the relation stamps that page too, so the flush rewrites it
// and its image holds exactly its rows below the row count.
func TestDeleteRewritesTheShortenedLastPage(t *testing.T) {
	dir := t.TempDir()
	rel := testRelation(t)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Attach(rel, true)
	for i := 0; i < relation.PageRows+5; i++ {
		if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	flushCommit(t, d, rel, 0)
	rel.Delete(1)
	flushCommit(t, d, rel, 1)
	if loc := d.table[1]; loc.gen != 1 {
		t.Fatalf("the shortened last page lives in generation %d", loc.gen)
	}
	reopen(t, dir, 1, rel)
}

// BenchmarkFlushOneDirtyPage times one Set and the flush that commits its
// page, at three relation sizes: a flush's cost follows its dirty pages,
// not the relation. B/row is the pages file that flush writes over the
// rows its page holds.
func BenchmarkFlushOneDirtyPage(b *testing.B) {
	for _, n := range []int{10000, 100000, 400000} {
		b.Run(strconv.Itoa(n/1000)+"k", func(b *testing.B) {
			rel := testRelation(b)
			d, err := Create(b.TempDir(), 3, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			d.Attach(rel, true)
			for i := 0; i < n; i++ {
				if _, err := rel.InsertRow("a", "b", strconv.Itoa(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.BeginFlush(header(rel), rel.Pin()).Commit(0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rel.Set(relation.TupleID(n/2), 0, relation.S(strconv.Itoa(i%2))); err != nil {
					b.Fatal(err)
				}
				if err := d.BeginFlush(header(rel), rel.Pin()).Commit(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st, err := os.Stat(filepath.Join(d.dir, pagesName(uint64(b.N)))); err == nil {
				b.ReportMetric(float64(st.Size())/float64(relation.PageRows), "B/row")
			}
		})
	}
}
