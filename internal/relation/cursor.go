package relation

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// RowCursor iterates a pinned View in physical (pin-time) order, one page
// of row pointers at a time: each refill copies up to PageRows
// pointers under the view's read lock, then rows are served from the
// private buffer with no lock held.
type RowCursor struct {
	v   *View
	p   int // next page to fetch
	buf []*Tuple
	pos int
}

// Rows returns a cursor over all rows of the view. Rows come back in
// physical order (ids are not sorted — deletions compact the array).
func (v *View) Rows() *RowCursor {
	return &RowCursor{v: v, buf: make([]*Tuple, 0, PageRows)}
}

// Next returns the next row, or nil when the cursor is exhausted. The
// returned tuple is immutable for the view's lifetime and must not be
// modified.
func (c *RowCursor) Next() *Tuple {
	for c.pos == len(c.buf) {
		n := c.v.Page(c.p, c.buf[:cap(c.buf)])
		if n == 0 {
			return nil
		}
		c.p++
		c.buf = c.buf[:n]
		c.pos = 0
	}
	t := c.buf[c.pos]
	c.pos++
	return t
}

// Seek positions the cursor at view row i (0 ≤ i < Len): the next Next
// returns it, and the rows after it follow in order.
func (c *RowCursor) Seek(i int) {
	p := i / PageRows
	c.buf = c.buf[:c.v.Page(p, c.buf[:cap(c.buf)])]
	c.p, c.pos = p+1, i-p*PageRows
}

// csvBlockSize is how much encoded CSV accumulates before it is handed to
// the underlying writer in one Write.
const csvBlockSize = 64 << 10

// csvClass classifies bytes for csvPlain: a csvSpecial byte anywhere in a
// field forces the quoted form; a csvLead first byte means the field may be
// `\.` or open with a Unicode space, which are quoted too.
const (
	csvSpecial = 1 << iota // , " \r \n
	csvLead                // ASCII blank, backslash, or the start of a multi-byte rune
)

var csvClass = func() (c [256]uint8) {
	for _, b := range []byte(",\"\r\n") {
		c[b] = csvSpecial
	}
	for _, b := range []byte(" \t\v\f\\") {
		c[b] = csvLead
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = csvLead
	}
	return c
}()

// csvPlain reports whether encoding/csv's Writer writes s exactly as it is,
// unquoted. It is the one statement of that rule: Dict.intern records it
// once per distinct value, and field asks it of everything else.
func csvPlain(s string) bool {
	var class uint8
	for i := 0; i < len(s); i++ {
		class |= csvClass[s[i]]
	}
	if class&csvSpecial != 0 {
		return false
	}
	if s == "" || csvClass[s[0]]&csvLead == 0 {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return !unicode.IsSpace(r) && s != `\.`
}

// A csvWriter is the one CSV row codec behind every read-out (WriteCSV,
// View.WriteCSV and through them Session.Dump and the server's dump): it
// appends rows straight into a byte block and writes each full block at
// once, or encodes a view page whole for the relation's page cache (page).
// The caller closes it after the last row; the first write error is sticky
// and stops every later write.
type csvWriter struct {
	w     io.Writer
	plain []bool              // the dictionary's csvPlain flags, indexed by ValueID
	blk   *[csvBlockSize]byte // buf's first backing array, csvBlocks' to have back
	buf   []byte
	hold  bool // page is encoding: a full block grows instead of going out
	err   error
}

// csvBlocks recycles blocks — storage only, no byte is read across dumps
// (what a later dump reuses is a page copied out of its block).
// A served session is dumped some 200 times a second, and a fresh block
// for each was +1.5 MB of peak RSS (EXPERIMENTS.md "PR 18").
// csvReader takes its blocks from here too, under the same rule.
var csvBlocks = sync.Pool{New: func() any { return new([csvBlockSize]byte) }}

// newCSVWriter returns a codec on w with the schema's header row encoded.
// It takes d's flags once: d only appends, so they stay valid for every id
// a relation or pinned view holds at this point.
func newCSVWriter(w io.Writer, s *Schema, d *Dict) *csvWriter {
	blk := csvBlocks.Get().(*[csvBlockSize]byte)
	e := &csvWriter{w: w, plain: d.plainFlags(), blk: blk, buf: blk[:0]}
	e.record(s.attrs)
	return e
}

// record encodes one row of strings that carry no ids (the header, tests).
func (e *csvWriter) record(fields []string) {
	for i, f := range fields {
		e.field(f, i > 0)
	}
	e.buf = append(e.buf, '\n')
}

// row encodes one tuple, nulls as the unquoted NullLiteral, and returns the
// writer's error once a block has failed. A value whose id the dictionary
// flagged plain is one append after the comma; the rest (values that need
// quotes, ids past the flags, free-standing tuples) go through field. The
// block lives in a local slice and goes back to e.buf around the calls
// that use it.
func (e *csvWriter) row(t *Tuple) error {
	ids := t.ids
	b := e.buf
	for i, v := range t.Vals {
		s := v.Str
		switch {
		case v.Null:
			s = NullLiteral
		case ids == nil || int(ids[i]) >= len(e.plain) || !e.plain[ids[i]]:
			e.buf = b
			e.field(s, i > 0)
			b = e.buf
			continue
		}
		if len(b)+len(s)+2 > cap(b) { // s, the comma and the row's newline
			e.buf = b
			e.makeRoom(len(s) + 2)
			b = e.buf
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	e.buf = append(b, '\n')
	return e.err
}

// weights encodes t's weights as one row, each at full precision ('g',
// -1). A number in that form never needs quotes, so each is appended as
// it is.
func (e *csvWriter) weights(t *Tuple) error {
	const maxFloat = len("-2.2250738585072014e-308") // the longest 'g', -1 form
	b := e.buf
	for i := range t.Vals {
		if len(b)+maxFloat+2 > cap(b) { // the weight, the comma and the row's newline
			e.buf = b
			e.makeRoom(maxFloat + 2)
			b = e.buf
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, t.Weight(i), 'g', -1, 64)
	}
	e.buf = append(b, '\n')
	return e.err
}

// makeRoom flushes the block so that n more bytes fit; only a field larger
// than the block grows it. A page held whole doubles the block instead, so
// a page of 1 024 rows grows it at most a few times.
func (e *csvWriter) makeRoom(n int) {
	if e.hold {
		n = max(n, cap(e.buf))
	} else {
		e.flush()
	}
	e.buf = slices.Grow(e.buf, n)
}

// page encodes rows into the empty block and returns a copy of their bytes
// of exactly their size; the block is empty again after it, and nothing
// has gone to the writer.
func (e *csvWriter) page(rows []*Tuple) []byte {
	e.hold = true
	for _, t := range rows {
		e.row(t)
	}
	e.hold = false
	b := slices.Clone(e.buf)
	e.buf = e.buf[:0]
	return b
}

// field appends s, after a comma if asked, quoted unless csvPlain lets it go
// as it is: `"` doubled and nothing else changed.
func (e *csvWriter) field(s string, comma bool) {
	plain := csvPlain(s)
	// Room for the comma, the row's newline and s — in the worst case
	// quoted with every byte a quote.
	need := len(s) + 2
	if !plain {
		need = 2*len(s) + 4
	}
	if len(e.buf)+need > cap(e.buf) {
		e.makeRoom(need)
	}
	if comma {
		e.buf = append(e.buf, ',')
	}
	if plain {
		e.buf = append(e.buf, s...)
		return
	}
	e.buf = append(e.buf, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			e.buf = append(e.buf, '"')
		}
		e.buf = append(e.buf, s[i])
	}
	e.buf = append(e.buf, '"')
}

// flush hands the block to the writer and empties it.
func (e *csvWriter) flush() error {
	e.send(e.buf)
	e.buf = e.buf[:0]
	return e.err
}

// send hands b to the writer in one Write, unless an earlier one failed.
func (e *csvWriter) send(b []byte) {
	if e.err == nil && len(b) > 0 {
		n, err := e.w.Write(b)
		if err == nil && n < len(b) {
			err = io.ErrShortWrite
		}
		if err != nil {
			e.err = fmt.Errorf("relation: writing CSV: %w", err)
		}
	}
}

// close flushes the last block and gives it back; the codec is dead after
// it. (A dump that ends in an error leaves its block to the collector.)
func (e *csvWriter) close() error {
	err := e.flush()
	csvBlocks.Put(e.blk)
	e.blk, e.buf = nil, nil
	return err
}

// csvPage is one entry of a relation's CSV page cache: the encoded rows of
// a view page whose stamp was stamp. An entry is never changed after it is
// stored; an entry of a stamp no older replaces it.
type csvPage struct {
	stamp uint64
	b     []byte
}

// cachedPage returns the cached bytes of page p if they were encoded at
// stamp, and nil otherwise (an empty entry holds nil).
func (r *Relation) cachedPage(p int, stamp uint64) []byte {
	r.csvMu.Lock()
	defer r.csvMu.Unlock()
	if p < len(r.csvPages) && r.csvPages[p].stamp == stamp {
		return r.csvPages[p].b
	}
	return nil
}

// cachePage stores b as page p's bytes at stamp, unless the cache holds a
// newer stamp of the page.
func (r *Relation) cachePage(p int, stamp uint64, b []byte) {
	r.csvMu.Lock()
	defer r.csvMu.Unlock()
	for p >= len(r.csvPages) {
		r.csvPages = append(r.csvPages, csvPage{})
	}
	if r.csvPages[p].stamp <= stamp {
		r.csvPages[p] = csvPage{stamp: stamp, b: b}
	}
}

// dropCachedPages forgets the cached pages from page n on.
func (r *Relation) dropCachedPages(n int) {
	r.csvMu.Lock()
	defer r.csvMu.Unlock()
	if n < len(r.csvPages) {
		clear(r.csvPages[n:])
		r.csvPages = r.csvPages[:n]
	}
}

// WriteCSV streams the pinned view as CSV with a header row —
// byte-identical to relation.WriteCSV at the same version. A page goes out
// in one Write: from the relation's page cache when the cached copy was
// encoded at the page's stamp (no write has touched the page since), and
// otherwise encoded into a slice of its exact size, which is then cached.
// The cache keeps one entry a page and drops the pages past the view's
// end, so it holds at most one CSV image of the relation; a dump's own
// buffering is one page of row pointers and the codec's block.
func (v *View) WriteCSV(w io.Writer) error {
	_, _, err := v.WriteCSVPages(w)
	return err
}

// WriteCSVPages is WriteCSV, and counts the pages it wrote from the cache
// and those it encoded.
func (v *View) WriteCSVPages(w io.Writer) (cached, encoded int, err error) {
	r := v.rel
	enc := newCSVWriter(w, v.Schema(), r.dict)
	enc.flush() // the header
	var rows []*Tuple
	for p, stamp := range v.gen.stamps {
		b := r.cachedPage(p, stamp)
		if b != nil {
			cached++
		} else {
			if rows == nil {
				rows = make([]*Tuple, PageRows)
			}
			b = enc.page(rows[:v.Page(p, rows)])
			r.cachePage(p, stamp, b)
			encoded++
		}
		enc.send(b)
		if enc.err != nil {
			return cached, encoded, enc.err
		}
	}
	r.dropCachedPages(len(v.gen.stamps))
	return cached, encoded, enc.close()
}
