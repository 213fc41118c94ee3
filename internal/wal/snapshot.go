package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cfdclean/internal/relation"
)

// Batch is one WAL record: a mutation batch a session accepted, with the
// journal Version cursor bracketing it. PrevVersion is the relation's
// mutation counter before the batch's engine pass and Version the counter
// after it — together they totally order records and make replay
// idempotent: a record whose Version is at or below the restored
// session's counter is already contained in the snapshot and is skipped,
// and a record whose PrevVersion does not meet the session's counter
// reveals a gap (a missing or out-of-order log) instead of silently
// corrupting state.
//
// Ops encodes the batch *inputs* (not the engine's output mutations),
// as relation Deltas under the conventions of increpair.OpsToDeltas:
// replay pushes them through the same ApplyOps path the live session
// ran, and the engine's determinism-by-construction guarantees the
// replayed pass rebuilds relation, violation store and counters
// bit-identically.
type Batch struct {
	PrevVersion uint64
	Version     uint64
	Ops         []relation.Delta
}

// Encode renders the batch as a WAL record payload.
func (b *Batch) Encode() []byte {
	out := binary.LittleEndian.AppendUint64(nil, b.PrevVersion)
	out = binary.LittleEndian.AppendUint64(out, b.Version)
	out = binary.AppendUvarint(out, uint64(len(b.Ops)))
	for i := range b.Ops {
		out = relation.AppendDelta(out, &b.Ops[i])
	}
	return out
}

// DecodeBatch parses a WAL record payload.
func DecodeBatch(p []byte) (*Batch, error) {
	d := relation.NewDecoder(p, ErrCorrupt)
	b := &Batch{PrevVersion: d.U64("batch prev version"), Version: d.U64("batch version")}
	nops := d.Uvarint("batch op count")
	for i := uint64(0); i < nops && d.Err() == nil; i++ {
		b.Ops = append(b.Ops, d.Delta())
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("batch record: %w", err)
	}
	return b, nil
}

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
type SnapTuple struct {
	ID   relation.TupleID
	Vals []relation.Value
	W    []float64
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
	// Workers is a retired setting kept in the format: written as 0,
	// decoded and ignored.
	Workers int

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

	// StoreKind records where the relation rows live. The zero value
	// means Tuples carries them; StorePaged means the session
	// runs the disk-backed page store (internal/store) and the rows live
	// in its page files at generation StoreGen — Tuples is then empty and
	// the snapshot is a slim header, which is what makes recovery ~O(dirty)
	// instead of O(relation).
	StoreKind byte
	StoreGen  uint64

	// Tuples is the relation content in physical row order (StoreKind 0
	// only).
	Tuples []SnapTuple
}

// StorePaged is the StoreKind of a slim header over the page store.
const StorePaged byte = 1

// appendHeader renders every snapshot field and n, the tuple count: the
// payload of a snapshot stream's header record.
func (s *Snapshot) appendHeader(out []byte, n int) []byte {
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
	out = binary.AppendUvarint(out, uint64(s.Workers))
	out = binary.AppendUvarint(out, uint64(s.Batches))
	out = binary.AppendUvarint(out, uint64(s.Inserted))
	out = binary.AppendUvarint(out, uint64(s.Deleted))
	out = binary.AppendUvarint(out, uint64(s.Changes))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Cost))
	out = binary.AppendVarint(out, int64(s.NextID))
	out = binary.AppendUvarint(out, s.Version)
	// The flag byte says whether any limit is set; readers ignore it.
	if s.Quota != (Quota{}) {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Quota.OpsPerSec))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Quota.TuplesPerSec))
	out = binary.AppendVarint(out, int64(s.Quota.MaxRelationSize))
	out = binary.AppendVarint(out, int64(s.Quota.MaxSubscribers))
	out = append(out, s.StoreKind)
	out = binary.AppendUvarint(out, s.StoreGen)
	out = binary.AppendUvarint(out, uint64(n))
	return out
}

// appendSnapTuple renders one tuple row.
func appendSnapTuple(out []byte, arity int, t *SnapTuple) []byte {
	out = binary.AppendVarint(out, int64(t.ID))
	for a := 0; a < arity; a++ {
		out = relation.AppendValue(out, t.Vals[a])
	}
	if t.W != nil {
		out = append(out, 1)
		for _, w := range t.W {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
		}
	} else {
		out = append(out, 0)
	}
	return out
}

// snapTupleLen is len(appendSnapTuple(nil, arity, t)), computed without
// encoding.
func snapTupleLen(arity int, t *SnapTuple) int {
	id := uint64(t.ID) << 1 // the zig-zag form AppendVarint writes
	if t.ID < 0 {
		id = ^id
	}
	n := relation.UvarintLen(id) + 1 + 8*len(t.W)
	for a := 0; a < arity; a++ {
		n += relation.ValueLen(t.Vals[a])
	}
	return n
}

// decodeSnapshotPrefix parses the snapshot header fields (through the
// tuple count) from d.
func decodeSnapshotPrefix(d *relation.Decoder) (*Snapshot, uint64) {
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
	s.Workers = int(d.Uvarint("workers"))
	s.Batches = int(d.Uvarint("batches"))
	s.Inserted = int(d.Uvarint("inserted"))
	s.Deleted = int(d.Uvarint("deleted"))
	s.Changes = int(d.Uvarint("changes"))
	s.Cost = math.Float64frombits(d.U64("cost"))
	s.NextID = relation.TupleID(d.Varint("next id"))
	s.Version = d.Uvarint("version")
	if d.Byte("quota flag") > 1 {
		d.Failf("bad quota flag")
	}
	s.Quota.OpsPerSec = math.Float64frombits(d.U64("quota ops/sec"))
	s.Quota.TuplesPerSec = math.Float64frombits(d.U64("quota tuples/sec"))
	s.Quota.MaxRelationSize = int(d.Varint("quota max relation size"))
	s.Quota.MaxSubscribers = int(d.Varint("quota max subscribers"))
	s.StoreKind = d.Byte("store kind")
	if s.StoreKind > StorePaged {
		d.Failf("unknown store kind %d", s.StoreKind)
	}
	s.StoreGen = d.Uvarint("store generation")
	return s, d.Uvarint("tuple count")
}

// decodeSnapTuple parses one tuple row.
func decodeSnapTuple(d *relation.Decoder, arity int) SnapTuple {
	t := SnapTuple{ID: relation.TupleID(d.Varint("tuple id"))}
	if arity > 0 {
		t.Vals = make([]relation.Value, arity)
	}
	for a := 0; a < arity && d.Err() == nil; a++ {
		t.Vals[a] = d.Value("tuple value")
	}
	t.W = d.Weights(arity)
	return t
}

// snapChunkTuples bounds the tuples per chunk record in a snapshot
// stream: large enough to amortize framing, small enough that the writer
// (WriteSnapshotRows) and the reader (SnapshotReader), each holding one
// chunk at a time, never hold more than one modest buffer.
const snapChunkTuples = 4096

// WriteSnapshotRows writes a snapshot stream to w: magic and version, a
// header record holding s's fields and the tuple count n, then the n rows
// row(0) … row(n-1) returns, as chunk records of up to snapChunkTuples
// rows (s.Tuples is not read). Each chunk is encoded straight into one
// frame buffer, reused from chunk to chunk and sized before the chunk is
// filled, so the writer holds one chunk's bytes whatever n is and
// copies no row: row may return a live tuple's own slices, which must not
// change until WriteSnapshotRows returns.
func WriteSnapshotRows(w io.Writer, s *Snapshot, n int, row func(i int) SnapTuple) error {
	buf, at := beginFrame(AppendHeader(nil, snapMagic, Version))
	buf = s.appendHeader(buf, n)
	if err := checkPayload(len(buf) - at - frameHeaderLen); err != nil {
		return err
	}
	sealFrame(buf, at)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	arity := len(s.Attrs)
	for start := 0; start < n; start += snapChunkTuples {
		end := min(start+snapChunkTuples, n)
		size := frameHeaderLen + relation.UvarintLen(uint64(end-start))
		for i := start; i < end; i++ {
			t := row(i)
			size += snapTupleLen(arity, &t)
		}
		if cap(buf) < size {
			buf = make([]byte, 0, size+size/8) // room for a slightly longer next chunk
		}
		buf, _ = beginFrame(buf[:0])
		buf = binary.AppendUvarint(buf, uint64(end-start))
		for i := start; i < end; i++ {
			t := row(i)
			buf = appendSnapTuple(buf, arity, &t)
		}
		if err := checkPayload(len(buf) - frameHeaderLen); err != nil {
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
// (WriteSnapshotRows). It is the one snapshot encoding: snapshot files
// and the images replication ships to a follower are these bytes.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	return WriteSnapshotRows(w, s, len(s.Tuples), func(i int) SnapTuple { return s.Tuples[i] })
}

// SnapshotReader yields the rows of a snapshot stream in order, one chunk
// record at a time: it holds the current chunk's payload, in one buffer
// reused from chunk to chunk, and none of the rows it has returned, so
// reading a snapshot costs one chunk's bytes whatever the relation's
// size. Snapshots are atomic: the caller must drop everything it built
// from the rows when Next fails.
type SnapshotReader struct {
	br    *bufio.Reader
	arity int
	rows  uint64 // tuples the header record promised
	got   uint64 // rows in the chunks read so far
	at    uint64 // row number of the current chunk's first row
	left  uint64 // rows of the current chunk not yet returned
	d     *relation.Decoder
	buf   []byte
	err   error // the first failure, returned by every later Next
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
	s, n := decodeSnapshotPrefix(d)
	if err := d.Done(); err != nil {
		return nil, nil, fmt.Errorf("snapshot header record: %w", err)
	}
	return s, &SnapshotReader{br: br, arity: len(s.Attrs), rows: n, buf: p[:0]}, nil
}

// Next returns the next row; ok is false, with no error, once every row
// the header promised has been returned and the stream ends behind the
// last chunk. It makes every check of the stream as it reaches it — each
// chunk's frame and checksum, its row count against the header's, the
// rows' encoding, no byte past the last chunk — and an error (wrapping
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
	t := decodeSnapTuple(sr.d, sr.arity)
	sr.left--
	err := sr.d.Err()
	if sr.left == 0 {
		err = sr.d.Done()
	}
	if err != nil {
		sr.err = fmt.Errorf("snapshot chunk at row %d: %w", sr.at, err)
		return SnapTuple{}, false, sr.err
	}
	return t, true, nil
}

// nextChunk reads the next chunk record into the reader's buffer and its
// row count.
func (sr *SnapshotReader) nextChunk() error {
	p, err := expectFrame(sr.br, sr.buf, maxPayload)
	if err != nil {
		return err
	}
	sr.buf = p
	sr.d = relation.NewDecoder(p, ErrCorrupt)
	n := sr.d.Uvarint("chunk tuple count")
	if n == 0 || sr.got+n > sr.rows {
		sr.d.Failf("chunk of %d tuples at row %d of %d", n, sr.got, sr.rows)
	}
	if err := sr.d.Err(); err != nil {
		return fmt.Errorf("snapshot chunk at row %d: %w", sr.got, err)
	}
	sr.at, sr.got, sr.left = sr.got, sr.got+n, n
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
