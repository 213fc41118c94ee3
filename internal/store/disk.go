package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
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
//	manifest-<gen>.mft page table, geometry and row count at flush <gen>
//	dict.log           append-only intern dictionary (shared by all gens)
//
// Headers, records, file names and the two file writes are internal/wal's
// (its package comment is the format reference); what is the store's own
// is a page record's prefix and the payloads:
//
//	page record  = pageNo(u64 LE) record(page image)
//
// A page file holds full page images and is written once per flush, then
// never modified — a later flush that re-dirties a page writes the page's
// new image into its own generation's file and repoints the page table.
// The manifest is the atomic commit point (wal.WriteFileAtomic): it names,
// for every page, the generation file and offset holding its newest image.
// Because old page files are immutable, the previous manifest remains a
// consistent fallback, which is exactly what snapshot-generation pruning
// (keep the newest two) requires.
//
// Rows are fixed-width and filed at their position in the relation's
// physical order:
//
//	row  = wflag(u8) id(i64 LE) valueID(u32 LE)×arity weight(f64 LE)×arity
//	page(pos) = pos / rowsPerPage,  slot(pos) = pos % rowsPerPage
//
// so pages 0 … ⌈rows/rowsPerPage⌉−1 hold the relation in order, every
// slot below the manifest's row count holds a row, and no reader looks at
// a slot past it.
//
// Values are the relation Dict's dense uint32 ids; dict.log persists the
// dictionary as length-prefixed strings in intern order, so ordinal i
// reproduces ValueID i+1 on reload. The dictionary delta is fsynced
// before the pages that reference it.

const (
	storeVersion  = 2
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

// Disk is the disk-backed tuple store for one session. It subscribes to
// the live relation's mutation journal and remembers which pages the
// positions written since the last flush fall on — their numbers, not
// their contents; BeginFlush/Commit encode those pages from the relation
// as pinned at a snapshot-rotation boundary into a new file generation.
// All methods are safe for the session pipeline's concurrency: the worker
// marks pages through observe while the committer commits a prior flush.
type Disk struct {
	dir         string
	arity       int
	rowWidth    int
	rowsPerPage uint64
	pageBytes   int

	mu    sync.Mutex
	dict  *relation.Dict
	unsub func()

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

	// strs resolves persisted ValueIDs on the read path (ordinal i ->
	// ValueID i+1); populated by Open, extended on dict flush.
	strs []string

	dirty   map[uint64]struct{} // pages touched since the last BeginFlush
	pending []*Flush            // unresolved flushes, oldest first
	files   map[uint64]*os.File // read handles, keyed by generation

	err    error
	closed bool
}

// Create initializes an empty store directory for a relation of the
// given arity. Any previous contents are removed.
func Create(dir string, arity int, opts Options) (*Disk, error) {
	opts = opts.withDefaults()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := newDisk(dir, arity, opts.PageSize)
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

// rowWidth is the width of one row at the given arity.
func rowWidth(arity int) int { return 1 + 8 + 12*arity }

// pagesFor is the number of pages rows rows fill.
func (d *Disk) pagesFor(rows int) uint64 {
	return (uint64(rows) + d.rowsPerPage - 1) / d.rowsPerPage
}

func newDisk(dir string, arity, pageSize int) *Disk {
	w := rowWidth(arity)
	rpp := max(pageSize/w, 1)
	return &Disk{
		dir:         dir,
		arity:       arity,
		rowWidth:    w,
		rowsPerPage: uint64(rpp),
		pageBytes:   rpp * w,
		table:       make(map[uint64]pageLoc),
		dirty:       make(map[uint64]struct{}),
		files:       make(map[uint64]*os.File),
	}
}

// Attach subscribes the store to rel's mutation journal: every mutation
// from the next one on marks the page of the position it wrote dirty.
// Must be called from the relation's writer serialization context
// (increpair.Session holds its lock).
func (d *Disk) Attach(rel *relation.Relation) {
	d.mu.Lock()
	d.dict = rel.Dict()
	d.mu.Unlock()
	d.unsub = rel.Subscribe(d.observe)
}

// SeedAll marks the pages of positions 0 … Size()−1 of rel dirty — the
// bootstrap for a freshly created store under a live relation. Must be
// called from the writer context, after Attach.
func (d *Disk) SeedAll(rel *relation.Relation) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for no := range d.pagesFor(rel.Size()) {
		d.dirty[no] = struct{}{}
	}
}

// observe marks the page of the position the mutation wrote. What the
// page holds is read from the pinned view when a flush commits; a delete
// also shortens the relation, which the flush's row count records.
func (d *Disk) observe(dl relation.Delta) {
	d.mu.Lock()
	d.dirty[uint64(dl.Pos)/d.rowsPerPage] = struct{}{}
	d.mu.Unlock()
}

// encodeRow writes t into row, which is zero.
func (d *Disk) encodeRow(row []byte, t *relation.Tuple) {
	binary.LittleEndian.PutUint64(row[1:], uint64(t.ID))
	p := 9
	for a := 0; a < d.arity; a++ {
		binary.LittleEndian.PutUint32(row[p:], uint32(t.IDAt(a)))
		p += 4
	}
	if t.W == nil {
		return // wflag and the weight cells stay zero
	}
	row[0] = 1
	for a := 0; a < d.arity; a++ {
		binary.LittleEndian.PutUint64(row[p:], math.Float64bits(t.W[a]))
		p += 8
	}
}

// Flush is the set of dirty pages captured at one snapshot-rotation
// boundary together with the relation as pinned there, between
// BeginFlush (worker, at the boundary) and Commit or Abort (committer,
// in commit order).
type Flush struct {
	d       *Disk
	pages   map[uint64]struct{}
	view    *relation.View
	dictLen int
	done    bool
}

// BeginFlush captures the dirty page set, the relation's rows in physical
// order (the pinned view) and the dictionary watermark at a quiescent
// boundary. Must be called from the writer context. The returned Flush
// must be resolved with exactly one Commit or Abort, in FIFO order
// relative to other flushes of the same store.
func (d *Disk) BeginFlush(v *relation.View) *Flush {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := &Flush{d: d, pages: d.dirty, view: v}
	if d.dict != nil {
		f.dictLen = d.dict.Len()
	}
	d.dirty = make(map[uint64]struct{})
	d.pending = append(d.pending, f)
	return f
}

// Abort releases the flush without committing. Its pages are still
// newer than their committed images, so their numbers pass to the next
// unresolved flush — whose later view holds them as of its own boundary
// — or, when there is none, back to the dirty set.
func (f *Flush) Abort() {
	if f.done {
		return
	}
	f.done = true
	d := f.d
	d.mu.Lock()
	if i := slices.Index(d.pending, f); i >= 0 {
		d.pending = slices.Delete(d.pending, i, i+1)
		heir := d.dirty
		if i < len(d.pending) {
			heir = d.pending[i].pages
		}
		for no := range f.pages {
			heir[no] = struct{}{}
		}
	}
	d.mu.Unlock()
	f.view.Release()
}

// Commit durably writes the flush as generation gen: dictionary delta
// first (fsync), then the images of the dirty pages below the row count,
// encoded from the pinned view (fsync), then the manifest (tmp + rename +
// dirsync) as the atomic commit point. On success the store's
// committed state advances and files no manifest of the two newest
// generations references are pruned. On failure the flush is aborted and
// the error is latched — the caller (the persister) marks the session's
// durability broken, exactly as for a failed snapshot write.
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
	dictStart := d.dictNext
	d.mu.Unlock()

	err := d.commitFiles(f, gen, dictStart)
	if err != nil {
		d.fail(err)
		f.Abort()
		return err
	}
	return nil
}

func (d *Disk) commitFiles(f *Flush, gen uint64, dictStart int) error {
	// 1. Dictionary delta, fsynced before any page referencing it.
	delta := d.dict.StringsFrom(dictStart, f.dictLen)
	if len(delta) > 0 {
		var buf []byte
		for _, s := range delta {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		if _, err := d.dictFile.WriteAt(buf, d.dictOff); err != nil {
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

	// 2. The dirty pages' images. A page at or past the row count holds
	// no row any more: it is neither written nor kept in the table.
	rows := f.view.Len()
	live := d.pagesFor(rows)
	d.mu.Lock() // an Abort ahead of f in the FIFO may have added pages
	nos := make([]uint64, 0, len(f.pages))
	for no := range f.pages {
		if no < live {
			nos = append(nos, no)
		}
	}
	d.mu.Unlock()
	slices.Sort(nos)
	locs, err := d.writePages(gen, f.view, nos)
	if err != nil {
		return err
	}

	// 3. Manifest: the commit point.
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
	if err := d.writeManifest(gen, newTable, f.dictLen, rows); err != nil {
		return err
	}

	// 4. Advance committed state and prune.
	d.mu.Lock()
	if hadManifest {
		d.prevGen, d.prevRefs, d.hasPrev = oldGen, tableRefs(oldTable, oldGen), true
	}
	d.gen, d.table, d.hasManifest = gen, newTable, true
	d.tupleCount = rows
	d.dictNext = f.dictLen
	if i := slices.Index(d.pending, f); i >= 0 {
		d.pending = slices.Delete(d.pending, i, i+1)
	}
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

// writePages encodes pages nos (ascending) from positions
// [no·rowsPerPage, min((no+1)·rowsPerPage, rows)) of v into
// pages-<gen>.dat and returns where each image landed. Slots past the row
// count stay zero. No dirty page, no file.
func (d *Disk) writePages(gen uint64, v *relation.View, nos []uint64) (map[uint64]pageLoc, error) {
	locs := make(map[uint64]pageLoc, len(nos))
	if len(nos) == 0 {
		return locs, nil
	}
	rows := uint64(v.Len())
	return locs, wal.WriteFileSynced(filepath.Join(d.dir, pagesName(gen)), func(w io.Writer) error {
		hdr := wal.AppendHeader(nil, pageMagic, storeVersion)
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		off := int64(len(hdr))
		page := make([]byte, d.pageBytes)
		var rec []byte
		for _, no := range nos {
			clear(page)
			lo := no * d.rowsPerPage
			for pos := lo; pos < min(lo+d.rowsPerPage, rows); pos++ {
				d.encodeRow(page[int(pos-lo)*d.rowWidth:][:d.rowWidth], v.Tuple(int(pos)))
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

func (d *Disk) writeManifest(gen uint64, table map[uint64]pageLoc, dictLen, rows int) error {
	b := encodeManifest(manifestGeom{d.arity, d.rowWidth, d.rowsPerPage, d.pageBytes}, table, dictLen, rows)
	return wal.WriteFileAtomic(filepath.Join(d.dir, manifestName(gen)), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// encodeManifest renders a manifest file, the inverse of decodeManifest:
// the header, then one record holding the geometry, the dictionary
// length, the row count and the page table in page order.
func encodeManifest(geom manifestGeom, table map[uint64]pageLoc, dictLen, rows int) []byte {
	payload := binary.AppendUvarint(nil, uint64(geom.arity))
	payload = binary.AppendUvarint(payload, uint64(geom.rowWidth))
	payload = binary.AppendUvarint(payload, geom.rowsPerPage)
	payload = binary.AppendUvarint(payload, uint64(geom.pageBytes))
	payload = binary.AppendUvarint(payload, uint64(dictLen))
	payload = binary.AppendUvarint(payload, uint64(rows))
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
// opens when the current snapshot is damaged. Best-effort: a leftover
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

// Err returns the latched error, if any.
func (d *Disk) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Gen returns the last committed manifest generation.
func (d *Disk) Gen() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// Stats summarizes the store for listings and metrics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	dirtyPages := len(d.dirty)
	for _, f := range d.pending {
		dirtyPages += len(f.pages)
	}
	s := Stats{
		Gen:         d.gen,
		Pages:       len(d.table),
		DirtyPages:  dirtyPages,
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

// Close detaches from the relation's journal and closes every file.
// Idempotent. It does not remove the directory; the owner decides
// whether the store outlives the process (crash recovery reopens it) or
// dies with the session (Destroy).
func (d *Disk) Close() {
	if d.unsub != nil {
		d.unsub()
		d.unsub = nil
	}
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

// Open loads the store at manifest generation gen, reading the
// dictionary prefix the manifest covers and truncating any orphan tail
// dict.log carries past it (a crash between dict append and manifest
// commit leaves entries no manifest references; a fresh append would
// otherwise land them at wrong ordinals). A store of another format
// version is refused (wal.ErrCorrupt). Pages are read by Source, every
// page of the row count once, in order.
func Open(dir string, gen uint64, arity int, opts Options) (*Disk, error) {
	opts = opts.withDefaults()
	b, err := os.ReadFile(filepath.Join(dir, manifestName(gen)))
	if err != nil {
		return nil, err
	}
	geom, table, dictLen, rows, err := decodeManifest(b)
	if err != nil {
		return nil, err
	}
	if geom.arity != arity {
		return nil, fmt.Errorf("%w: manifest arity %d, relation has %d", errCorrupt, geom.arity, arity)
	}
	// A row's layout follows from the arity; the iterator reads rows by
	// it.
	if want := rowWidth(arity); geom.rowWidth != want {
		return nil, fmt.Errorf("%w: manifest row width %d, arity %d needs %d", errCorrupt, geom.rowWidth, arity, want)
	}
	d := newDisk(dir, arity, opts.PageSize)
	// The persisted geometry wins: row addressing must stay stable.
	d.rowWidth = geom.rowWidth
	d.rowsPerPage = geom.rowsPerPage
	d.pageBytes = geom.pageBytes
	d.gen, d.hasManifest = gen, true
	d.table = table
	d.tupleCount = rows
	d.dictNext = dictLen

	if err := d.openDict(dictLen); err != nil {
		return nil, err
	}
	// The previous manifest's references guard pruning: the persister
	// keeps two snapshot generations, so their page files must survive.
	if gen > 0 {
		if pb, err := os.ReadFile(filepath.Join(dir, manifestName(gen-1))); err == nil {
			if _, pt, _, _, err := decodeManifest(pb); err == nil {
				d.prevGen, d.prevRefs, d.hasPrev = gen-1, tableRefs(pt, gen-1), true
			}
		}
	}
	return d, nil
}

type manifestGeom struct {
	arity       int
	rowWidth    int
	rowsPerPage uint64
	pageBytes   int
}

func decodeManifest(b []byte) (geom manifestGeom, table map[uint64]pageLoc, dictLen, rows int, err error) {
	r := bytes.NewReader(b)
	if err = wal.CheckHeader(r, manifestMagic, storeVersion); err != nil {
		return geom, nil, 0, 0, err
	}
	payload, err := wal.ExpectFrame(r, len(b))
	if err != nil {
		return geom, nil, 0, 0, fmt.Errorf("manifest: %w", err)
	}
	if r.Len() != 0 {
		return geom, nil, 0, 0, fmt.Errorf("%w: manifest record trailed by %d bytes", errCorrupt, r.Len())
	}
	d := relation.NewDecoder(payload, errCorrupt)
	geom.arity = int(d.Uvarint("arity"))
	geom.rowWidth = int(d.Uvarint("row width"))
	geom.rowsPerPage = d.Uvarint("rows per page")
	geom.pageBytes = int(d.Uvarint("page bytes"))
	dictLen = int(d.Uvarint("dictionary length"))
	rows = int(d.Uvarint("row count"))
	n := d.Uvarint("page count")
	if geom.rowsPerPage == 0 || geom.rowWidth <= 0 || geom.pageBytes != int(geom.rowsPerPage)*geom.rowWidth {
		d.Failf("geometry inconsistent")
	}
	// A page table entry is at least three bytes.
	table = make(map[uint64]pageLoc, min(n, uint64(len(payload))/3))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		no := d.Uvarint("page number")
		table[no] = pageLoc{gen: d.Uvarint("page generation"), off: int64(d.Uvarint("page offset"))}
	}
	if err := d.Done(); err != nil {
		return geom, nil, 0, 0, fmt.Errorf("manifest: %w", err)
	}
	return geom, table, dictLen, rows, nil
}

// openDict reads exactly dictLen entries from dict.log, truncates any
// orphan tail, and positions the append cursor.
func (d *Disk) openDict(dictLen int) error {
	f, err := os.OpenFile(filepath.Join(d.dir, dictName), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	strs, off, err := readDict(f, dictLen)
	if err == nil {
		err = f.Truncate(off)
	}
	if err == nil {
		err = f.Sync()
	}
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
// inline tuple records. It reads pages 0 … ⌈rows/rowsPerPage⌉−1 of the
// generation it was opened on, each once and in order, and holds one page
// image.
type Iterator struct {
	d     *Disk
	table map[uint64]pageLoc
	strs  []string
	rows  int
	pos   int
	page  []byte
	err   error
}

// Source opens an iterator over the last committed generation's rows.
func (d *Disk) Source() (*Iterator, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	return &Iterator{d: d, table: d.table, strs: d.strs, rows: d.tupleCount}, nil
}

// Strings returns the persisted dictionary in intern order. Restoring
// interns these into the fresh relation's dictionary first, which
// reproduces the persisted ValueIDs exactly (a Dict assigns dense ids
// in intern order and only grows).
func (d *Disk) Strings() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.strs
}

// Next returns the next row. ok is false at clean exhaustion; a missing
// or damaged page or row returns an error (the caller falls back to an
// older snapshot generation, like any torn snapshot).
func (it *Iterator) Next() (wal.SnapTuple, bool, error) {
	if it.err != nil {
		return wal.SnapTuple{}, false, it.err
	}
	if it.pos == it.rows {
		return wal.SnapTuple{}, false, nil
	}
	d := it.d
	no, slot := uint64(it.pos)/d.rowsPerPage, uint64(it.pos)%d.rowsPerPage
	if slot == 0 {
		loc, ok := it.table[no]
		if !ok {
			it.err = fmt.Errorf("%w: page %d of %d rows is missing", errCorrupt, no, it.rows)
			return wal.SnapTuple{}, false, it.err
		}
		d.mu.Lock()
		it.page, it.err = d.readPageLocked(no, loc)
		d.mu.Unlock()
		if it.err != nil {
			return wal.SnapTuple{}, false, it.err
		}
	}
	t, err := it.row(it.page[int(slot)*d.rowWidth:][:d.rowWidth])
	if err != nil {
		it.err = err
		return wal.SnapTuple{}, false, err
	}
	it.pos++
	return t, true, nil
}

// readPageLocked reads and verifies one committed page image. A
// generation's page file has its header checked when it is first opened.
func (d *Disk) readPageLocked(no uint64, loc pageLoc) ([]byte, error) {
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
	r := io.NewSectionReader(f, loc.off, 8+8+int64(d.pageBytes))
	var prefix [8]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, fmt.Errorf("%w: page %d record prefix: %v", errCorrupt, no, err)
	}
	b, err := wal.ExpectFrame(r, d.pageBytes)
	if err != nil {
		return nil, fmt.Errorf("page %d: %w", no, err)
	}
	if gotNo := binary.LittleEndian.Uint64(prefix[:]); gotNo != no || len(b) != d.pageBytes {
		return nil, fmt.Errorf("%w: page %d record mismatch (no=%d len=%d)", errCorrupt, no, gotNo, len(b))
	}
	return b, nil
}

// row decodes row, the slot of the iterator's position.
func (it *Iterator) row(row []byte) (wal.SnapTuple, error) {
	d := it.d
	id := relation.TupleID(binary.LittleEndian.Uint64(row[1:]))
	if id <= 0 || row[0] > 1 {
		return wal.SnapTuple{}, fmt.Errorf("%w: position %d holds id %d, weight flag %d", errCorrupt, it.pos, id, row[0])
	}
	t := wal.SnapTuple{ID: id, Vals: make([]relation.Value, d.arity)}
	p := 9
	for a := 0; a < d.arity; a++ {
		vid := binary.LittleEndian.Uint32(row[p:])
		p += 4
		if vid == 0 {
			t.Vals[a] = relation.NullValue
			continue
		}
		if int(vid) > len(it.strs) {
			return wal.SnapTuple{}, fmt.Errorf("%w: position %d references value id %d beyond dictionary (%d entries)", errCorrupt, it.pos, vid, len(it.strs))
		}
		t.Vals[a] = relation.Value{Str: it.strs[vid-1]}
	}
	if row[0] == 1 {
		t.W = make([]float64, d.arity)
		for a := 0; a < d.arity; a++ {
			t.W[a] = math.Float64frombits(binary.LittleEndian.Uint64(row[p:]))
			p += 8
		}
	}
	return t, nil
}

// Close releases nothing: the iterator holds no handle of its own (the
// store owns its page files). It stays for the callers that defer it.
func (it *Iterator) Close() {}
