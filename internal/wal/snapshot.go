package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cfdclean/internal/relation"
)

// Quota is the hosting service's per-session admission policy, the
// limits the session's create request set. Zero limits mean unlimited.
// A snapshot records it, so a tenant's quota survives recovery and ships
// to replicas as set. The engine itself never reads this; it is carried
// for the server layer.
type Quota struct {
	// OpsPerSec bounds write requests per second and TuplesPerSec the
	// tuples they carry, each with a one-second burst (at least 1).
	OpsPerSec    float64
	TuplesPerSec float64
	// MaxRelationSize caps the relation (403 past it); MaxSubscribers
	// caps concurrent event streams (409 past it).
	MaxRelationSize int
	MaxSubscribers  int
}

// SnapTuple is one relation row inside a snapshot, in the relation's
// physical order. Ids are explicit — the physical slot order and the id
// assignment both matter for byte-identical recovery (Delete compacts by
// swapping, so physical order diverges from id order as soon as anything
// is deleted).
//
// IDs, when set, holds the id of each value in a dictionary the row's
// producer and consumer share (NullID for null): a row SnapshotReader
// returns carries the ids of its own dictionary (SnapshotReader.Dict), a
// row the page store's reader returns those of the store's, and a row
// WriteSnapshotRows reads the caller's. A row built in memory leaves it
// nil.
type SnapTuple struct {
	ID   relation.TupleID
	Vals []relation.Value
	W    []float64
	IDs  []relation.ValueID
}

// Snapshot is a full-state image of one streaming session at a quiescent
// point (no engine pass in flight): everything RestoreSession needs to
// rebuild the session so that its Dump, Violations and Stats are
// byte-identical to the original's at the same journal watermark. The
// violation store itself is deliberately absent — it is a pure function
// of the relation contents and is rebuilt by one deterministic detection
// pass on restore, which keeps the format small and immune to store
// layout changes.
type Snapshot struct {
	// Name is the hosting service's session name ("" outside the server).
	Name string
	// Relname and Attrs reproduce the schema.
	Relname string
	Attrs   []string
	// CFDs is the constraint set in the cfd.Parse text format.
	CFDs string

	// Engine options (cost model excluded: sessions always run the
	// default model; see increpair.Options).
	Ordering uint8
	K        int
	NearestK int

	// Cumulative session counters (see increpair.Snapshot).
	Batches  int
	Inserted int
	Deleted  int
	Changes  int
	Cost     float64

	// Journal marks at snapshot time.
	NextID  relation.TupleID
	Version uint64

	// Quota is the hosting service's admission policy for the session
	// (zero value: unlimited).
	Quota Quota

	// Tuples is the relation content in physical row order, for a
	// snapshot built in memory; a stream's reader and the page store
	// hand the rows back one at a time instead.
	Tuples []SnapTuple
}

// AppendSnapshotHeader renders every field of s but its Tuples, then n,
// the tuple count: the payload of a snapshot stream's header record, and
// the head of the page store's manifest record, whose tuple count is its
// row count.
func AppendSnapshotHeader(out []byte, s *Snapshot, n int) []byte {
	out = appendString(out, s.Name)
	out = appendString(out, s.Relname)
	out = binary.AppendUvarint(out, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		out = appendString(out, a)
	}
	out = appendString(out, s.CFDs)
	out = append(out, s.Ordering)
	out = binary.AppendUvarint(out, uint64(s.K))
	out = binary.AppendUvarint(out, uint64(s.NearestK))
	out = binary.AppendUvarint(out, uint64(s.Batches))
	out = binary.AppendUvarint(out, uint64(s.Inserted))
	out = binary.AppendUvarint(out, uint64(s.Deleted))
	out = binary.AppendUvarint(out, uint64(s.Changes))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Cost))
	out = binary.AppendVarint(out, int64(s.NextID))
	out = binary.AppendUvarint(out, s.Version)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Quota.OpsPerSec))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Quota.TuplesPerSec))
	out = binary.AppendVarint(out, int64(s.Quota.MaxRelationSize))
	out = binary.AppendVarint(out, int64(s.Quota.MaxSubscribers))
	out = binary.AppendUvarint(out, uint64(n))
	return out
}

// imageIDs numbers the distinct constants of a snapshot image in the
// order its rows first use them: img[v] is 1 + the image entry of the
// caller's value id v, 0 while v has not been written. One dense slice
// over the caller's ids, so numbering a cell is one array read.
type imageIDs struct {
	img     []uint32
	entries uint32
}

// number gives every constant of t the image has not written yet the next
// entry, in attribute order, and returns the bytes those entries take.
func (m *imageIDs) number(arity int, t *SnapTuple) int {
	n := 0
	for a := 0; a < arity; a++ {
		if v := t.IDs[a]; v != relation.NullID && m.img[v] == 0 {
			m.entries++
			m.img[v] = m.entries
			str := t.Vals[a].Str
			n += relation.UvarintLen(uint64(len(str))) + len(str)
		}
	}
	return n
}

// appendFresh appends the constants of t that number gave entries from
// *next on, in entry order, advancing *next past them: called on a
// chunk's rows in order, it writes the constants the chunk numbered, in
// the order it numbered them.
func (m *imageIDs) appendFresh(out []byte, arity int, t *SnapTuple, next *uint32) []byte {
	for a := 0; a < arity; a++ {
		if v := t.IDs[a]; v != relation.NullID && m.img[v] == *next {
			out = appendString(out, t.Vals[a].Str)
			*next++
		}
	}
	return out
}

// DecodeSnapshotHeader parses what AppendSnapshotHeader wrote from d: the
// snapshot's fields and the tuple count.
func DecodeSnapshotHeader(d *relation.Decoder) (*Snapshot, uint64) {
	s := &Snapshot{}
	s.Name = d.Str("name")
	s.Relname = d.Str("relation name")
	nattrs := d.Uvarint("attribute count")
	if nattrs > 1<<16 {
		d.Failf("implausible attribute count %d", nattrs)
	}
	for i := uint64(0); i < nattrs && d.Err() == nil; i++ {
		s.Attrs = append(s.Attrs, d.Str("attribute"))
	}
	s.CFDs = d.Str("cfds")
	s.Ordering = d.Byte("ordering")
	s.K = int(d.Uvarint("k"))
	s.NearestK = int(d.Uvarint("nearest_k"))
	s.Batches = int(d.Uvarint("batches"))
	s.Inserted = int(d.Uvarint("inserted"))
	s.Deleted = int(d.Uvarint("deleted"))
	s.Changes = int(d.Uvarint("changes"))
	s.Cost = math.Float64frombits(d.U64("cost"))
	s.NextID = relation.TupleID(d.Varint("next id"))
	s.Version = d.Uvarint("version")
	s.Quota.OpsPerSec = math.Float64frombits(d.U64("quota ops/sec"))
	s.Quota.TuplesPerSec = math.Float64frombits(d.U64("quota tuples/sec"))
	s.Quota.MaxRelationSize = int(d.Varint("quota max relation size"))
	s.Quota.MaxSubscribers = int(d.Varint("quota max subscribers"))
	return s, d.Uvarint("tuple count")
}

// snapChunkTuples bounds the tuples per chunk record in a snapshot
// stream: large enough to amortize framing, small enough that the writer
// (WriteSnapshotRows) and the reader (SnapshotReader), each holding one
// chunk at a time, never hold more than one modest buffer.
const snapChunkTuples = 4096

// WriteSnapshotRows writes a snapshot stream to w: magic and version, a
// header record holding s's fields and the tuple count n, then the n rows
// row(0) … row(n-1) returns, as chunk records of up to snapChunkTuples
// rows (s.Tuples is not read). Every row must carry IDs, each below
// idLimit: the writer numbers the constants by those ids through one
// dense slice of idLimit entries, so that each distinct constant is
// written once, in the chunk whose rows first use it, and every cell is
// an id. A chunk is encoded straight into one frame buffer, reused from
// chunk to chunk and sized before the chunk is filled, so the writer
// holds that slice and one chunk's bytes whatever n is, and copies no
// row. It reads a chunk's rows twice, in order — to number its new
// constants and size the record, then to write them and the rows — so
// row must return the same row for the same i: it may return a live
// tuple's own slices, which must not change until WriteSnapshotRows
// returns, and an IDs slice of its own it overwrites at the next call.
func WriteSnapshotRows(w io.Writer, s *Snapshot, n, idLimit int, row func(i int) SnapTuple) error {
	buf, at := beginFrame(AppendHeader(nil, snapMagic, Version))
	buf = AppendSnapshotHeader(buf, s, n)
	if err := checkPayload(len(buf) - at - frameHeaderLen); err != nil {
		return err
	}
	sealFrame(buf, at)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	arity := len(s.Attrs)
	m := &imageIDs{img: make([]uint32, idLimit)}
	var prev relation.TupleID
	for start := 0; start < n; start += snapChunkTuples {
		end := min(start+snapChunkTuples, n)
		// The first pass numbers the chunk's new constants and sizes the
		// record. The second writes those constants and the rows side by
		// side, each into its own region of the buffer.
		first := m.entries + 1
		strBytes, rowBytes, p := 0, 0, prev
		for i := start; i < end; i++ {
			t := row(i)
			strBytes += m.number(arity, &t)
			rowBytes += rowLen(p, &t, m.img)
			p = t.ID
		}
		fresh := uint64(m.entries + 1 - first)
		head := frameHeaderLen + relation.UvarintLen(uint64(end-start)) + relation.UvarintLen(fresh)
		size := head + strBytes + rowBytes
		if cap(buf) < size {
			buf = make([]byte, 0, size+size/8) // room for a slightly longer next chunk
		}
		buf = buf[:size]
		binary.AppendUvarint(binary.AppendUvarint(buf[frameHeaderLen:frameHeaderLen], uint64(end-start)), fresh)
		strs := buf[head : head : head+strBytes]
		rows := buf[head+strBytes : head+strBytes : size]
		for i, next := start, first; i < end; i++ {
			t := row(i)
			strs = m.appendFresh(strs, arity, &t, &next)
			rows = AppendRow(rows, prev, &t, m.img)
			prev = t.ID
		}
		if len(strs) != strBytes || len(rows) != rowBytes {
			panic("wal: a snapshot chunk was sized wrong")
		}
		if err := checkPayload(size - frameHeaderLen); err != nil {
			return err
		}
		sealFrame(buf, 0)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot writes s and its inline tuples as a snapshot stream
// (WriteSnapshotRows), numbering their constants itself, in first-use
// order; the tuples' IDs are not read. It is the one snapshot encoding:
// snapshot files and the images replication ships to a follower are
// these bytes.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	arity := len(s.Attrs)
	var num strTable
	ids := make([]relation.ValueID, arity*len(s.Tuples))
	for i, t := range s.Tuples {
		for a, v := range t.Vals[:arity] {
			ids[i*arity+a] = relation.ValueID(num.cell(v))
		}
	}
	return WriteSnapshotRows(w, s, len(s.Tuples), len(num.strs)+1, func(i int) SnapTuple {
		t := s.Tuples[i]
		t.IDs = ids[i*arity : (i+1)*arity]
		return t
	})
}

// SnapshotReader yields the rows of a snapshot stream in order, one chunk
// record at a time: it holds the current chunk's payload, in one buffer
// reused from chunk to chunk, and none of the rows it has returned, so
// reading a snapshot costs one chunk's bytes whatever the relation's
// size. Each chunk's new constants go into the reader's dictionary as the
// chunk arrives, image entry k as ValueID k+1, and every row comes back
// with its IDs in that dictionary and its values the dictionary's own
// strings: a restore builds its relation over the dictionary
// (relation.NewWithDict) and inserts the rows by id. Snapshots are
// atomic: the caller must drop everything it built from the rows when
// Next fails.
type SnapshotReader struct {
	br    *bufio.Reader
	arity int
	rows  uint64 // tuples the header record promised
	got   uint64 // rows in the chunks read so far
	at    uint64 // row number of the current chunk's first row
	left  uint64 // rows of the current chunk not yet returned
	d     *relation.Decoder
	buf   []byte
	dict  *relation.Dict
	// The current chunk's entries run up to (not including) entries; a
	// row may name an entry below used, or first use entry used.
	used, entries uint64
	prev          relation.TupleID // the last row's tuple id
	err           error            // the first failure, returned by every later Next
}

// NewSnapshotReader reads and verifies a snapshot stream's magic, version
// and header record from r. The returned snapshot holds every header
// field and no Tuples; the reader yields the rows.
func NewSnapshotReader(r io.Reader) (*Snapshot, *SnapshotReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := CheckHeader(br, snapMagic, Version); err != nil {
		return nil, nil, err
	}
	p, err := ExpectFrame(br, maxPayload)
	if err != nil {
		return nil, nil, err
	}
	d := relation.NewDecoder(p, ErrCorrupt)
	s, n := DecodeSnapshotHeader(d)
	if err := d.Done(); err != nil {
		return nil, nil, fmt.Errorf("snapshot header record: %w", err)
	}
	return s, &SnapshotReader{br: br, arity: len(s.Attrs), rows: n, buf: p[:0], dict: relation.NewDict()}, nil
}

// Dict returns the dictionary the rows' IDs refer to. It holds the
// constants of the chunks read so far, in the order the image first uses
// them.
func (sr *SnapshotReader) Dict() *relation.Dict { return sr.dict }

// Next returns the next row; ok is false, with no error, once every row
// the header promised has been returned and the stream ends behind the
// last chunk. It makes every check of the stream as it reaches it — each
// chunk's frame and checksum, its row count against the header's, the
// encoding of its constants and rows in the image's one canonical form
// (format.go), no byte past the last chunk — and an error (wrapping
// ErrCorrupt for damage) is returned again by every later call.
func (sr *SnapshotReader) Next() (SnapTuple, bool, error) {
	if sr.err != nil {
		return SnapTuple{}, false, sr.err
	}
	if sr.left == 0 {
		if sr.got == sr.rows {
			if _, err := sr.br.ReadByte(); err != io.EOF {
				sr.err = fmt.Errorf("%w: snapshot stream trailed by garbage", ErrCorrupt)
				return SnapTuple{}, false, sr.err
			}
			return SnapTuple{}, false, nil
		}
		if sr.err = sr.nextChunk(); sr.err != nil {
			return SnapTuple{}, false, sr.err
		}
	}
	t := sr.row()
	sr.left--
	err := sr.d.Err()
	if sr.left == 0 {
		if sr.used != sr.entries {
			sr.d.Failf("image entry %d is used by no row of the chunk that writes it", sr.used)
		}
		err = sr.d.Done()
	}
	if err != nil {
		sr.err = fmt.Errorf("snapshot chunk at row %d: %w", sr.at, err)
		return SnapTuple{}, false, sr.err
	}
	return t, true, nil
}

// row decodes the next row of the current chunk. Each cell must name an
// image entry read so far, and the first cell naming an entry no row has
// used must name the next one in first-use order.
func (sr *SnapshotReader) row() SnapTuple {
	d := sr.d
	t := DecodeRow(d, sr.arity, sr.prev)
	sr.prev = t.ID
	for _, c := range t.IDs {
		if c == relation.NullID || d.Err() != nil {
			continue
		}
		switch k := uint64(c) - 1; {
		case k >= sr.entries:
			d.Failf("cell names image entry %d, past the %d read so far", k, sr.entries)
		case k == sr.used:
			sr.used++
		case k > sr.used:
			d.Failf("cell names image entry %d before entry %d is first used", k, sr.used)
		}
	}
	if d.Err() == nil {
		sr.dict.Fill(t.Vals, t.IDs)
	}
	return t
}

// nextChunk reads the next chunk record into the reader's buffer, its row
// count, and its constants into the reader's dictionary.
func (sr *SnapshotReader) nextChunk() error {
	p, err := expectFrame(sr.br, sr.buf, maxPayload)
	if err != nil {
		return err
	}
	sr.buf = p
	d := relation.NewDecoder(p, ErrCorrupt)
	sr.d = d
	// Every chunk but the last holds snapChunkTuples rows.
	n := d.Uvarint("chunk tuple count")
	if n != min(snapChunkTuples, sr.rows-sr.got) {
		d.Failf("chunk of %d tuples at row %d of %d", n, sr.got, sr.rows)
	}
	strs := d.Uvarint("chunk string count")
	for k := uint64(0); k < strs && d.Err() == nil; k++ {
		str := d.Str("image string")
		if d.Err() == nil && sr.dict.InternStr(str) != relation.ValueID(sr.entries+1) {
			d.Failf("image entry %d repeats an earlier entry", sr.entries)
		}
		sr.entries++
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("snapshot chunk at row %d: %w", sr.got, err)
	}
	sr.at, sr.got, sr.left = sr.got, sr.got+n, n
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
