package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// On-disk layout of one Disk store directory:
//
//	pages-<gen>.dat    page records written by flush <gen>
//	manifest-<gen>.mft session header, row count and page table at flush <gen>
//	dict.log           append-only intern dictionary (shared by all gens)
//
// Headers, records, file names, the two file writes, the row form and the
// session header are internal/wal's (its package comment is the format
// reference); what is the store's own is a page record's prefix and the
// rest of the manifest payload:
//
//	page record      = pageNo(u64 LE) record(page image)
//	manifest payload = session-header(row count) dictLen(uvarint)
//	                   npages(uvarint) (pageNo gen offset)*, all uvarint
//
// A page file holds full page images and is written once per flush, then
// never modified — a later flush that re-dirties a page writes the page's
// new image into its own generation's file and repoints the page table.
// The manifest is the atomic commit point (wal.WriteFileAtomic) and the
// whole generation: it holds the session header the flush was begun with
// (wal.AppendSnapshotHeader, its tuple count the row count) and names, for
// every page, the generation file and offset holding its newest image.
// Because old page files are immutable, the previous manifest remains a
// consistent fallback, which is exactly what generation pruning (keep
// the newest two) requires.
//
// Rows are filed at their position in the relation's physical order, a
// store page being the relation's view page,
//
//	page(pos) = pos / relation.PageRows
//
// so pages 0 … ⌈rows/PageRows⌉−1 hold the relation in order. A page
// image is the page's rows below the manifest's row count in the
// snapshot image's row form (wal.AppendRow), its cells the relation
// Dict's dense value ids, and is decoded row by row; a page record is at
// most PageRows rows of the longest form long.
//
// dict.log persists the dictionary as length-prefixed strings in intern
// order, so ordinal i reproduces ValueID i+1 on reload. The dictionary
// delta is fsynced before the pages that reference it.

const (
	storeVersion  = 5
	pageMagic     = "CFDPAGE"
	manifestMagic = "CFDSTOR"
	dictMagic     = "CFDDICT"
)

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("store: closed")

// errCorrupt reports structural damage in a store file (a damaged header
// or record reports wal.ErrCorrupt); recovery treats either like a damaged
// snapshot and falls back to an older generation.
var errCorrupt = errors.New("store: corrupt")

func pagesName(gen uint64) string    { return wal.GenName("pages", gen) }
func manifestName(gen uint64) string { return wal.GenName("manifest", gen) }

const dictName = "dict.log"

// pageLoc locates a page's newest committed image.
type pageLoc struct {
	gen uint64
	off int64 // record start within pages-<gen>.dat
}

// Disk is the disk-backed tuple store for one session. It holds the
// committed page table and the relation version those pages hold;
// BeginFlush/Commit encode the pages the relation stamped after that
// version from the relation as pinned at a snapshot-rotation boundary
// into a new file generation. All methods are safe for the session
// pipeline's concurrency: the worker begins a flush while the committer
// commits a prior one.
type Disk struct {
	dir   string
	arity int

	mu   sync.Mutex
	dict *relation.Dict

	// dictNext counts non-null dictionary ordinals already persisted;
	// dictOff is the append offset in dict.log.
	dictNext int
	dictFile *os.File
	dictOff  int64

	// Committed state: the newest manifest and its page table, plus the
	// previous manifest's file references for prune safety.
	gen         uint64
	hasManifest bool
	table       map[uint64]pageLoc
	tupleCount  int
	prevGen     uint64
	prevRefs    map[uint64]bool
	hasPrev     bool
	// version is the relation version the committed pages hold, known
	// once based: a flush writes the pages stamped after it, and every
	// page while the store is not based. flushPages counts the pages the
	// last committed flush wrote.
	version    uint64
	based      bool
	flushPages int

	// strs resolves persisted ValueIDs on the read path (ordinal i ->
	// ValueID i+1); populated by Open, extended on dict flush.
	strs []string

	files map[uint64]*os.File // read handles, keyed by generation

	err    error
	closed bool
}

// Create initializes an empty store directory for a relation of the
// given arity. Any previous contents are removed.
func Create(dir string, arity int, _ Options) (*Disk, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := newDisk(dir, arity)
	f, err := os.OpenFile(filepath.Join(dir, dictName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := wal.AppendHeader(nil, dictMagic, storeVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	d.dictFile = f
	d.dictOff = int64(len(hdr))
	return d, nil
}

// pageCap is the longest page record's payload at the given arity:
// PageRows rows of the longest form, a ten-byte tuple-id delta, a
// five-byte cell and an eight-byte weight per attribute, and the flag.
func pageCap(arity int) int { return relation.PageRows * (binary.MaxVarintLen64 + 13*arity + 1) }

// pagesFor is the number of pages rows rows fill.
func pagesFor(rows int) uint64 {
	return uint64((rows + relation.PageRows - 1) / relation.PageRows)
}

func newDisk(dir string, arity int) *Disk {
	return &Disk{
		dir:   dir,
		arity: arity,
		table: make(map[uint64]pageLoc),
		files: make(map[uint64]*os.File),
	}
}

// Attach binds the store to rel, whose dictionary its flushes persist.
// Without seed the store takes rel as it stands for its committed state
// — a store reopened by crash recovery holds the relation restored from
// it — so the next flush writes the pages written after this call. With
// seed the store is not based and its next flush writes every page (the
// bootstrap for a fresh store under a live relation). rel's version must
// not move back while the store is attached.
func (d *Disk) Attach(rel *relation.Relation, seed bool) {
	d.mu.Lock()
	d.dict = rel.Dict()
	d.version, d.based = rel.Version(), !seed
	d.mu.Unlock()
}

// Flush is the session as captured at one snapshot-rotation boundary,
// between BeginFlush (worker, at the boundary) and Commit or Abort
// (committer, in commit order).
type Flush struct {
	d    *Disk
	snap *wal.Snapshot
	view *relation.View
	done bool
}

// BeginFlush takes the session as captured at a quiescent boundary: its
// header, which the manifest records as it stands at Commit (so the
// caller may still stamp fields such as the quota into it), and the
// relation as pinned there — its rows in physical order, its page stamps
// and its dictionary watermark. The returned Flush must be resolved with
// exactly one Commit or Abort, in FIFO order relative to other flushes of
// the same store.
func (d *Disk) BeginFlush(snap *wal.Snapshot, v *relation.View) *Flush {
	return &Flush{d: d, snap: snap, view: v}
}

// Abort releases the flush without committing. The committed version
// does not move, so the next flush to commit writes this one's pages too.
func (f *Flush) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.view.Release()
}

// Commit durably writes the flush as generation gen: dictionary delta
// first (fsync), then the images of the pages below the row count that
// the view stamped after the committed version (every page when the
// store is not based), encoded from the pinned view (fsync), then the
// manifest holding the flush's header and the page table (tmp + rename +
// dirsync) as the atomic commit point. On
// success the store's committed state advances to the view's version
// and files no manifest of the two newest generations references are
// pruned. On failure the flush is aborted and the error is latched — the
// caller (the persister) marks the session's durability broken, exactly
// as for a failed snapshot write.
func (f *Flush) Commit(gen uint64) error {
	d := f.d
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		f.Abort()
		return ErrClosed
	}
	if d.err != nil {
		err := d.err
		d.mu.Unlock()
		f.Abort()
		return err
	}
	dictStart, version, based := d.dictNext, d.version, d.based
	d.mu.Unlock()

	var nos []uint64
	for p, stamp := range f.view.Stamps() {
		if !based || stamp > version {
			nos = append(nos, uint64(p))
		}
	}
	if err := d.commitFiles(f, gen, dictStart, nos); err != nil {
		d.fail(err)
		f.Abort()
		return err
	}
	return nil
}

func (d *Disk) commitFiles(f *Flush, gen uint64, dictStart int, nos []uint64) error {
	// 1. Dictionary delta, fsynced before any page referencing it. It
	// lands behind the entries the last manifest counts and ends the
	// file, cutting any tail a crash left there (Open writes nothing).
	dictLen := f.view.DictLen()
	delta := d.dict.StringsFrom(dictStart, dictLen)
	if len(delta) > 0 {
		var buf []byte
		for _, s := range delta {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		if _, err := d.dictFile.WriteAt(buf, d.dictOff); err != nil {
			return err
		}
		if err := d.dictFile.Truncate(d.dictOff + int64(len(buf))); err != nil {
			return err
		}
		if err := d.dictFile.Sync(); err != nil {
			return err
		}
		d.mu.Lock()
		d.dictOff += int64(len(buf))
		d.strs = append(d.strs, delta...)
		d.mu.Unlock()
	}

	// 2. The stamped pages' images.
	locs, err := d.writePages(gen, f.view, nos)
	if err != nil {
		return err
	}

	// 3. Manifest: the commit point. A page at or past the row count
	// holds no row any more and leaves the table.
	rows := f.view.Len()
	live := pagesFor(rows)
	d.mu.Lock()
	newTable := make(map[uint64]pageLoc, live)
	for no, loc := range d.table {
		if no < live {
			newTable[no] = loc
		}
	}
	oldGen, oldTable, hadManifest := d.gen, d.table, d.hasManifest
	d.mu.Unlock()
	for no, loc := range locs {
		newTable[no] = loc
	}
	if err := d.writeManifest(gen, f.snap, newTable, dictLen, rows); err != nil {
		return err
	}

	// 4. Advance committed state and prune.
	d.mu.Lock()
	if hadManifest {
		d.prevGen, d.prevRefs, d.hasPrev = oldGen, tableRefs(oldTable, oldGen), true
	}
	d.gen, d.table, d.hasManifest = gen, newTable, true
	d.tupleCount = rows
	d.dictNext = dictLen
	d.version, d.based, d.flushPages = f.view.Version(), true, len(nos)
	keep := tableRefs(newTable, gen)
	if d.hasPrev {
		for g := range d.prevRefs {
			keep[g] = true
		}
	}
	d.pruneLocked(keep)
	d.mu.Unlock()

	f.done = true
	f.view.Release()
	return nil
}

func tableRefs(table map[uint64]pageLoc, gen uint64) map[uint64]bool {
	refs := make(map[uint64]bool, 4)
	for _, loc := range table {
		refs[loc.gen] = true
	}
	refs[gen] = true
	return refs
}

// writePages encodes pages nos (ascending) of v into pages-<gen>.dat and
// returns where each image landed. No page, no file.
func (d *Disk) writePages(gen uint64, v *relation.View, nos []uint64) (map[uint64]pageLoc, error) {
	locs := make(map[uint64]pageLoc, len(nos))
	if len(nos) == 0 {
		return locs, nil
	}
	return locs, wal.WriteFileSynced(filepath.Join(d.dir, pagesName(gen)), func(w io.Writer) error {
		hdr := wal.AppendHeader(nil, pageMagic, storeVersion)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		off := int64(len(hdr))
		ids := make([]relation.ValueID, d.arity)
		rows := make([]*relation.Tuple, relation.PageRows)
		var page, rec []byte
		for _, no := range nos {
			page = page[:0]
			var prev relation.TupleID
			for _, t := range rows[:v.Page(int(no), rows)] {
				for a := range ids {
					ids[a] = t.IDAt(a)
				}
				page = wal.AppendRow(page, prev, &wal.SnapTuple{ID: t.ID, W: t.W, IDs: ids}, nil)
				prev = t.ID
			}
			rec = wal.AppendFrame(binary.LittleEndian.AppendUint64(rec[:0], no), page)
			if _, err := w.Write(rec); err != nil {
				return err
			}
			locs[no] = pageLoc{gen: gen, off: off}
			off += int64(len(rec))
		}
		return nil
	})
}

func (d *Disk) writeManifest(gen uint64, snap *wal.Snapshot, table map[uint64]pageLoc, dictLen, rows int) error {
	b := encodeManifest(snap, table, dictLen, rows)
	return wal.WriteFileAtomic(filepath.Join(d.dir, manifestName(gen)), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// encodeManifest renders a manifest file, the inverse of decodeManifest:
// the file header, then one record holding the session header with the
// row count, the dictionary length and the page table in page order.
func encodeManifest(snap *wal.Snapshot, table map[uint64]pageLoc, dictLen, rows int) []byte {
	payload := wal.AppendSnapshotHeader(nil, snap, rows)
	payload = binary.AppendUvarint(payload, uint64(dictLen))
	payload = binary.AppendUvarint(payload, uint64(len(table)))
	for _, no := range slices.Sorted(maps.Keys(table)) {
		loc := table[no]
		payload = binary.AppendUvarint(payload, no)
		payload = binary.AppendUvarint(payload, loc.gen)
		payload = binary.AppendUvarint(payload, uint64(loc.off))
	}
	return wal.AppendFrame(wal.AppendHeader(nil, manifestMagic, storeVersion), payload)
}

// pruneLocked removes the page files of generations not in keep (those
// no page of the two newest manifests lives in), closing any cached read
// handle first, and the manifest of every generation but the current one
// and the previous one, which is the fallback recovery
// opens when the current generation is damaged. Best-effort: a leftover
// file is garbage collected at the next commit.
func (d *Disk) pruneLocked(keep map[uint64]bool) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		var stale bool
		switch kind, gen, _ := wal.ParseGenName(e.Name()); kind {
		case "pages":
			stale = !keep[gen]
			if f, ok := d.files[gen]; ok && stale {
				f.Close()
				delete(d.files, gen)
			}
		case "manifest":
			stale = gen != d.gen && !(d.hasPrev && gen == d.prevGen)
		}
		if stale {
			os.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
}

// fail latches the first error; every later write path refuses.
func (d *Disk) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

// Stats summarizes the store for listings and metrics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	s := Stats{
		Gen:         d.gen,
		Pages:       len(d.table),
		FlushPages:  d.flushPages,
		Tuples:      d.tupleCount,
		DictEntries: d.dictNext,
	}
	d.mu.Unlock()
	if ents, err := os.ReadDir(d.dir); err == nil {
		for _, e := range ents {
			if info, err := e.Info(); err == nil {
				s.DiskBytes += info.Size()
			}
		}
	}
	return s
}

// Close closes every file. Idempotent. It does not remove the directory;
// the owner decides whether the store outlives the process (crash
// recovery reopens it) or dies with the session (Destroy).
func (d *Disk) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	for gen, f := range d.files {
		f.Close()
		delete(d.files, gen)
	}
	if d.dictFile != nil {
		d.dictFile.Close()
		d.dictFile = nil
	}
}

// Open loads the store at manifest generation gen and returns the
// session header the manifest holds, reading the dictionary prefix the
// manifest covers. It writes nothing, so a caller that refuses the
// header, or falls back to an older generation, leaves the files as they
// were: an orphan tail dict.log carries past the prefix (a crash between
// dict append and manifest commit leaves entries no manifest references)
// is overwritten or cut by the next commit's dictionary append, which
// lands at the prefix's end. The header's attributes give the rows'
// arity. A store of another format version is refused (wal.ErrCorrupt).
// Pages are read by Source, every page of the row count once, in order.
func Open(dir string, gen uint64) (*Disk, *wal.Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName(gen)))
	if err != nil {
		return nil, nil, err
	}
	snap, table, dictLen, rows, err := decodeManifest(b)
	if err != nil {
		return nil, nil, err
	}
	d := newDisk(dir, len(snap.Attrs))
	d.gen, d.hasManifest = gen, true
	d.table = table
	d.tupleCount = rows
	d.dictNext = dictLen

	if err := d.openDict(dictLen); err != nil {
		return nil, nil, err
	}
	// The previous manifest's references guard pruning: the persister
	// keeps two generations, so their page files must survive.
	if gen > 0 {
		if pb, err := os.ReadFile(filepath.Join(dir, manifestName(gen-1))); err == nil {
			if _, pt, _, _, err := decodeManifest(pb); err == nil {
				d.prevGen, d.prevRefs, d.hasPrev = gen-1, tableRefs(pt, gen-1), true
			}
		}
	}
	return d, snap, nil
}

func decodeManifest(b []byte) (snap *wal.Snapshot, table map[uint64]pageLoc, dictLen, rows int, err error) {
	r := bytes.NewReader(b)
	if err = wal.CheckHeader(r, manifestMagic, storeVersion); err != nil {
		return nil, nil, 0, 0, err
	}
	payload, err := wal.ExpectFrame(r, len(b))
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("manifest: %w", err)
	}
	if r.Len() != 0 {
		return nil, nil, 0, 0, fmt.Errorf("%w: manifest record trailed by %d bytes", errCorrupt, r.Len())
	}
	d := relation.NewDecoder(payload, errCorrupt)
	snap, n := wal.DecodeSnapshotHeader(d)
	rows = int(n)
	dictLen = int(d.Uvarint("dictionary length"))
	np := d.Uvarint("page count")
	// A page table entry is at least three bytes.
	table = make(map[uint64]pageLoc, min(np, uint64(len(payload))/3))
	for i := uint64(0); i < np && d.Err() == nil; i++ {
		no := d.Uvarint("page number")
		table[no] = pageLoc{gen: d.Uvarint("page generation"), off: int64(d.Uvarint("page offset"))}
	}
	if err := d.Done(); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("manifest: %w", err)
	}
	return snap, table, dictLen, rows, nil
}

// openDict reads exactly dictLen entries from dict.log and positions the
// append cursor behind them.
func (d *Disk) openDict(dictLen int) error {
	f, err := os.OpenFile(filepath.Join(d.dir, dictName), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	strs, off, err := readDict(f, dictLen)
	if err != nil {
		f.Close()
		return err
	}
	d.dictFile = f
	d.dictOff = off
	d.strs = strs
	return nil
}

// readDict reads the header and the first n entries of a dict.log and
// returns them with the offset they end at. The lengths are unframed
// bytes off the disk, so each is held to the bytes the file has left.
func readDict(f *os.File, n int) ([]string, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	r := &countReader{r: bufio.NewReaderSize(f, 1<<16)}
	if err := wal.CheckHeader(r, dictMagic, storeVersion); err != nil {
		return nil, 0, err
	}
	// Every entry takes at least its one-byte length.
	if n < 0 || int64(n) > st.Size()-r.n {
		return nil, 0, fmt.Errorf("%w: dict.log holds %d bytes of entries, too few for %d", errCorrupt, st.Size()-r.n, n)
	}
	strs := make([]string, 0, n)
	var buf []byte
	for i := 0; i < n; i++ {
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: dict.log truncated at entry %d of %d", errCorrupt, i, n)
		}
		if left := st.Size() - r.n; ln > uint64(left) {
			return nil, 0, fmt.Errorf("%w: dict.log entry %d of %d claims %d bytes, %d are left", errCorrupt, i, n, ln, left)
		}
		buf = slices.Grow(buf[:0], int(ln))[:ln]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, 0, fmt.Errorf("%w: dict.log truncated at entry %d of %d", errCorrupt, i, n)
		}
		strs = append(strs, string(buf))
	}
	return strs, r.n, nil
}

// countReader counts the bytes read through it.
type countReader struct {
	r *bufio.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// Iterator streams the store's committed rows in physical order as
// snapshot tuples — the recovery-time replacement for a snapshot file's
// inline tuple records. It reads pages 0 … ⌈rows/PageRows⌉−1 of the
// generation it was opened on, each once and in order, holds one page
// image and decodes its rows in order. A row is the value ids it was
// written under (its IDs), which the dictionary Dict returns resolves.
type Iterator struct {
	d       *Disk
	table   map[uint64]pageLoc
	entries int // dict.log's entries: the largest value id a cell may name
	rows    int
	pos     int
	page    *relation.Decoder // the current page image
	left    int               // its rows not yet returned
	prev    relation.TupleID  // the tuple id of its last row returned
	err     error
}

// Source opens an iterator over the last committed generation's rows.
func (d *Disk) Source() (*Iterator, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	return &Iterator{d: d, table: d.table, entries: len(d.strs), rows: d.tupleCount}, nil
}

// Dict returns a fresh dictionary holding the persisted constants in
// intern order, which reproduces the persisted ValueIDs exactly (a Dict
// assigns dense ids in intern order and only grows): the ids the
// iterator's rows carry name its entries, so a restore builds its
// relation over it and inserts the rows by id. A dict.log that holds a
// constant twice would shift every id behind it, and is refused.
func (d *Disk) Dict() (*relation.Dict, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dict := relation.NewDict()
	for i, s := range d.strs {
		if dict.InternStr(s) != relation.ValueID(i+1) {
			return nil, fmt.Errorf("%w: dict.log entry %d repeats an earlier entry", errCorrupt, i)
		}
	}
	return dict, nil
}

// Next returns the next row. ok is false at clean exhaustion; a missing
// or damaged page or row returns an error (the caller falls back to an
// older snapshot generation, like any torn snapshot). A page image must
// hold its rows below the row count in the row form and nothing behind
// them, and every cell must name a dict.log entry.
func (it *Iterator) Next() (wal.SnapTuple, bool, error) {
	if it.err != nil || it.pos == it.rows {
		return wal.SnapTuple{}, false, it.err
	}
	d := it.d
	if it.left == 0 {
		b, err := d.readPage(it.table, uint64(it.pos/relation.PageRows))
		if err != nil {
			it.err = err
			return wal.SnapTuple{}, false, err
		}
		it.page, it.left, it.prev = relation.NewDecoder(b, errCorrupt), min(relation.PageRows, it.rows-it.pos), 0
	}
	t := wal.DecodeRow(it.page, d.arity, it.prev)
	it.prev = t.ID
	for _, c := range t.IDs {
		if int(c) > it.entries {
			it.page.Failf("value id %d beyond the dictionary's %d entries", c, it.entries)
		}
	}
	it.left--
	err := it.page.Err()
	if it.left == 0 {
		err = it.page.Done()
	}
	if err != nil {
		it.err = fmt.Errorf("page %d, position %d: %w", it.pos/relation.PageRows, it.pos, err)
		return wal.SnapTuple{}, false, it.err
	}
	it.pos++
	return t, true, nil
}

// readPage reads and verifies page no's committed image in table. A
// generation's page file has its header checked when it is first opened.
func (d *Disk) readPage(table map[uint64]pageLoc, no uint64) ([]byte, error) {
	loc, ok := table[no]
	if !ok {
		return nil, fmt.Errorf("%w: page %d is missing", errCorrupt, no)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[loc.gen]
	if !ok {
		var err error
		f, err = os.Open(filepath.Join(d.dir, pagesName(loc.gen)))
		if err != nil {
			return nil, err
		}
		if err := wal.CheckHeader(f, pageMagic, storeVersion); err != nil {
			f.Close()
			return nil, err
		}
		d.files[loc.gen] = f
	}
	limit := pageCap(d.arity)
	r := io.NewSectionReader(f, loc.off, 8+8+int64(limit))
	var prefix [8]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, fmt.Errorf("%w: page %d record prefix: %v", errCorrupt, no, err)
	}
	b, err := wal.ExpectFrame(r, limit)
	if err != nil {
		return nil, fmt.Errorf("page %d: %w", no, err)
	}
	if gotNo := binary.LittleEndian.Uint64(prefix[:]); gotNo != no {
		return nil, fmt.Errorf("%w: page %d record holds page %d", errCorrupt, no, gotNo)
	}
	return b, nil
}

// Close releases nothing: the iterator holds no handle of its own (the
// store owns its page files). It stays for the callers that defer it.
func (it *Iterator) Close() {}
