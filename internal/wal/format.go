// Package wal is the durability substrate of the streaming-session
// stack: a length-prefixed, CRC-checked binary write-ahead log for
// relation mutation batches, plus full-state session snapshots. The
// relation journal (internal/relation) already exposes every accepted
// batch as a totally-ordered stream of typed Deltas; this package
// serializes that stream so a session can be reconstructed after a crash
// by loading the newest valid generation and replaying the batches logged
// after it (see internal/server's persister).
//
// # Formats
//
// This comment is the format reference for every byte the stack makes
// durable or ships, and format.go the one implementation of the record,
// the file header, the two file writes and the generation-file name;
// internal/store, internal/cluster/ship and internal/server's persister
// call it.
//
//	record = length(u32 LE) crc(u32 LE) payload
//	header = magic version(u8)
//
// crc is the CRC-32C (Castagnoli) checksum of the payload alone; length
// counts payload bytes; payloads are opaque at this layer. ReadFrame is
// the one reader: it returns io.EOF only where the stream ends cleanly
// before a record's first byte and wraps ErrCorrupt around every other
// failure (short header, short payload, checksum mismatch, a length
// beyond the caller's cap); it refuses the length before allocating
// anything and sizes its buffer by the bytes that arrive, so a forged
// length buys its sender nothing but the refusal.
// WAL and snapshot records may be as long as the u32 length can state:
// their readers pass that as the cap, and the WAL's and the snapshots'
// writers refuse a longer payload rather than wrap its length.
//
// Four file kinds and the snapshot stream open with a header, and a
// reader accepts exactly the version its writer stamps — any other is
// refused with ErrVersion (which wraps ErrCorrupt). A codec change that
// breaks old files must bump the version (TestFormatsByteIdentical and
// the golden fixture under testdata/golden/wal-session fail loudly when
// this is forgotten). WAL files carry a version of their own
// (WALVersion); the others share Version and the store's version.
//
//	wal-<gen>.log       "CFDWAL"  6  record*  (batch payloads)
//	pages-<gen>.dat     "CFDPAGE" 5  (pageNo(u64 LE) record)*
//	manifest-<gen>.mft  "CFDSTOR" 5  record   (session header, page table)
//	dict.log            "CFDDICT" 5  (length(uvarint) bytes)*, unframed
//	snapshot stream     "CFDSNAP" 5  header-record chunk-record*
//
// <gen> is ten decimal digits (GenName). A generation of a durable
// session is its manifest and its WAL: the manifest's one record holds
// the session header (AppendSnapshotHeader: Σ, the schema, the engine
// options, the counters, the journal marks and the quota, its tuple
// count the row count) followed by the page table (internal/store), and
// the WAL the batches accepted after it. A snapshot stream streams the
// same header record followed by bounded tuple-chunk records, so
// snapshots of any size are written and read without a relation-sized
// allocation (an image held to ship is its chunk records' bytes); Batch
// (batch.go) and Snapshot (snapshot.go) define those payloads.
//
// Both images of a relation, a snapshot's chunk records and the page
// store's page records, hold rows in one form (AppendRow, DecodeRow):
//
//	row    = iddelta(varint) cell*arity wflag(u8) weight*
//	chunk  = nrows(uvarint) nstrs(uvarint) string* row*
//	string = len(uvarint) byte*   (image entry k is the k-th string)
//	page   = row*                 (its positions below the row count, at
//	                               most relation.PageRows of them)
//
// iddelta is the tuple id minus the previous row's in the image (in the
// page), zig-zag encoded, 0 before the first; weight is float64 bits
// (u64 LE), arity of them iff wflag is 1. A cell is a uvarint, 0 for
// null: in a chunk, k+1 names image entry k, a string of this chunk or an
// earlier one; in a page, i+1 names dict.log entry i, the relation Dict's
// value id i+1. Each form is canonical and its reader refuses any other:
// no tuple id is 0, no varint is longer than it must be, every chunk but
// the last holds 4 096 rows, no string appears twice, every string is
// first used by a row of its own chunk and numbered in first-use order,
// and a page holds its rows and no byte behind them.
//
// A batch record (Batch, batch.go) holds one accepted batch's input ops
// between the journal versions before and after its pass:
//
//	batch  = prev(u64 LE) version(u64 LE) nstrs(uvarint) string*
//	         nops(uvarint) op*
//	op     = kind(u8) id(varint) nvals(uvarint) cell*nvals wflag(u8)
//	         weight* attr(uvarint) old(cell)
//
// kind is relation.DeltaKind; an insert's cells are its values, a set's
// old cell is the value it sets (increpair.OpsToDeltas), and weight is
// float64 bits, nvals of them iff wflag is 1. A cell is 0 for null or
// k+1 for entry k of the record's scope: its string table, which a
// record extends by the strings it is the first of the scope to use, in
// the order its cells (an op's values, then its old cell, op by op) first
// name them. In a WAL file the scope is the file — the table grows record
// by record, and Open rebuilds it from the intact prefix — and in a
// shipped frame the record alone (Batch.Encode, DecodeBatch), so a frame
// stands by itself and a fresh WAL's first record is its bytes. The
// reader refuses a string its scope holds already, a cell naming an
// entry past the table or before an earlier declared one is used, and a
// declared string no cell of its record uses. Image chunks, pages, WAL
// records and shipped frames share this one cell form and differ only in
// the table's scope: the image, dict.log, the WAL file, the frame.
//
// Replication (internal/cluster/ship) adds no snapshot layout: a shipped
// snapshot is the snapshot stream above, magic and version included, and
// a shipped frame carries one batch:
//
//	shipped snapshot    "CFDSNAP" 5  header-record chunk-record*
//	shipped frame       kind(u8)=3 record  (a batch payload, its own scope)
//
// Manifests and the follower-role marker are commit points, replaced
// atomically (WriteFileAtomic: temporary sibling, fsync, rename,
// directory fsync): a crash leaves the old file or the new one.
// Page files are written once and fsynced (WriteFileSynced)
// before the manifest that names them commits; until then nothing refers
// to them. The WAL and dict.log are appended in place: Create fsyncs the
// new log and its directory entry before the first append, Sync fsyncs
// appended records, and dict.log's appends are fsynced before the pages
// that reference them, each landing behind the entries the last manifest
// covers and cutting any tail a crash left there.
//
// # Crash semantics
//
// A crash can leave a torn record at the log's tail: a short header, a
// payload shorter than its declared length, or a payload whose checksum
// no longer matches. Open detects all three, reports how many intact
// records precede the damage, and truncates the file back to the last
// intact record boundary so the log is append-clean again; the string
// table it rebuilds from those records is the one later appends extend,
// so a string whose declaring record the crash tore is declared again. Damage is
// only ever accepted at the tail — a bad record invalidates everything
// after it, because record boundaries downstream of a torn write cannot
// be trusted — and only in the WAL: every other file is complete before
// anything refers to it, so a torn record there rejects the file.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cfdclean/internal/relation"
)

// ErrCorrupt reports structural damage: a bad magic or version, a torn
// or checksum-failing record, or a payload that does not decode. Tail
// corruption inside Open is handled (discarded) and NOT returned as an
// error; ErrCorrupt surfaces where no valid prefix can be salvaged.
var ErrCorrupt = errors.New("wal: corrupt")

// ErrVersion reports a file whose magic names its kind but whose version
// byte is not the one this build reads: a file of another build rather
// than damage, which recovery refuses instead of discarding. It wraps
// ErrCorrupt and reads as it.
var ErrVersion = fmt.Errorf("%w", ErrCorrupt)

const frameHeaderLen = 8 // u32 length + u32 crc

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPayload is the longest payload a record's u32 length can state (that
// an int can hold), and the cap of WAL and snapshot records: a WAL record
// holds a whole batch, coalesced /ingest bodies included.
const maxPayload = min(math.MaxUint32, math.MaxInt)

// checkPayload refuses a payload of n bytes that a record cannot frame;
// the writers of WAL and snapshot records call it before they frame one.
func checkPayload(n int) error {
	if n > maxPayload {
		return fmt.Errorf("wal: record payload of %d bytes exceeds the %d a record can state", n, maxPayload)
	}
	return nil
}

// AppendFrame appends one record holding payload to dst; the payload must
// be at most maxPayload bytes.
func AppendFrame(dst, payload []byte) []byte {
	dst, at := beginFrame(dst)
	dst = append(dst, payload...)
	sealFrame(dst, at)
	return dst
}

// beginFrame reserves a record header at the end of dst, at offset at, so
// that a writer can append the payload in place behind it and sealFrame
// the record afterwards: a record is never built apart and copied in.
func beginFrame(dst []byte) (out []byte, at int) {
	return append(dst, make([]byte, frameHeaderLen)...), len(dst)
}

// sealFrame fills in the header beginFrame reserved at offset at with the
// length and checksum of everything appended behind it, which must be at
// most maxPayload bytes.
func sealFrame(frame []byte, at int) {
	payload := frame[at+frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[at+4:], crc32.Checksum(payload, castagnoli))
}

// ReadFrame reads and verifies one record from r and returns its
// payload, which is at most max bytes. io.EOF means r ended cleanly at a
// record boundary; every other failure wraps ErrCorrupt, and a failed
// read also wraps the reader's error (an HTTP body over its limit stays
// an *http.MaxBytesError under the ErrCorrupt). Whether a
// missing or torn record is tolerable is the caller's decision — only
// the WAL scan (Open) says yes.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	return readFrame(r, nil, max)
}

// readFrame is ReadFrame into buf's storage, so that a reader of many
// records can reuse one buffer: a payload that fits in cap(buf) costs no
// allocation, and a longer one grows a new buffer as ReadFrame does.
func readFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	var h [frameHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: record header torn: %w", ErrCorrupt, err)
	}
	n, crc := int64(binary.LittleEndian.Uint32(h[:4])), binary.LittleEndian.Uint32(h[4:])
	if n > int64(limit) {
		return nil, fmt.Errorf("%w: record of implausible length %d (at most %d here)", ErrCorrupt, n, limit)
	}
	// The length came off a disk or a network: it bounds the read, but the
	// buffer follows the bytes that arrive. Once full it grows to n, or to
	// n/8, n/64, … — the largest of them at most eight times the bytes in
	// hand — so a header claiming limit with nothing behind it allocates
	// 16 KiB, and a long payload costs little more than its own length.
	// A reused buffer the payload outgrows is replaced with an eighth to
	// spare, so that the reader's next, slightly longer record fits too.
	p := buf[:0]
	for got := int64(0); got < n; {
		if got == int64(cap(p)) {
			size := min(n, 16<<10)
			if got > 0 {
				size = n
				for size > 8*got {
					size = (size + 7) / 8
				}
			}
			if size == n && buf != nil {
				size += n / 8
			}
			grown := make([]byte, got, size)
			copy(grown, p)
			p = grown
		}
		p = p[:min(n, int64(cap(p)))]
		m, err := io.ReadFull(r, p[got:])
		got += int64(m)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised these bytes
		}
		if err != nil {
			return nil, fmt.Errorf("%w: record torn at %d of %d payload bytes: %w", ErrCorrupt, got, n, err)
		}
	}
	if crc32.Checksum(p, castagnoli) != crc {
		return nil, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	return p, nil
}

// ExpectFrame is ReadFrame where the format owes the reader a record: a
// stream that ends cleanly instead is as damaged as one that ends inside
// the record.
func ExpectFrame(r io.Reader, max int) ([]byte, error) {
	return expectFrame(r, nil, max)
}

// expectFrame is ExpectFrame into buf's storage (see readFrame).
func expectFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	p, err := readFrame(r, buf, limit)
	if err == io.EOF {
		err = fmt.Errorf("%w: stream ends where a record is owed", ErrCorrupt)
	}
	return p, err
}

// AppendHeader appends a file header: the magic that names the file kind
// and the kind's format version.
func AppendHeader(dst []byte, magic string, version byte) []byte {
	return append(append(dst, magic...), version)
}

// CheckHeader reads a file header from r and verifies it: the magic must
// match, and a version other than version is refused by name, with
// ErrVersion.
func CheckHeader(r io.Reader, magic string, version byte) error {
	h := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r, h); err != nil || string(h[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad %s header", ErrCorrupt, magic)
	}
	if ver := h[len(magic)]; ver != version {
		return fmt.Errorf("%w: %s format version %d, this build reads and writes only version %d", ErrVersion, magic, ver, version)
	}
	return nil
}

// AppendRow appends t as a row behind the row whose tuple id was prev:
// the zig-zag delta of its tuple id, a uvarint cell per value id in
// t.IDs, the weight flag and the weights. The cell of id v is cells[v],
// or v itself when cells is nil; either way NullID's is 0.
func AppendRow(out []byte, prev relation.TupleID, t *SnapTuple, cells []uint32) []byte {
	out = binary.AppendVarint(out, int64(t.ID-prev))
	for _, v := range t.IDs {
		c := uint32(v)
		if cells != nil {
			c = cells[v]
		}
		out = binary.AppendUvarint(out, uint64(c))
	}
	if t.W == nil {
		return append(out, 0)
	}
	out = append(out, 1)
	for _, w := range t.W {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
	}
	return out
}

// rowLen is len(AppendRow(nil, prev, t, cells)), computed without
// encoding.
func rowLen(prev relation.TupleID, t *SnapTuple, cells []uint32) int {
	d := uint64(t.ID-prev) << 1 // the zig-zag form AppendVarint writes
	if t.ID-prev < 0 {
		d = ^d
	}
	n := relation.UvarintLen(d) + 1 + 8*len(t.W)
	for _, v := range t.IDs {
		c := uint32(v)
		if cells != nil {
			c = cells[v]
		}
		n += relation.UvarintLen(uint64(c))
	}
	return n
}

// DecodeRow reads the row AppendRow wrote behind the row whose tuple id
// was prev. The row's IDs are its cells as written, NullID for null: what
// a cell names is the caller's to check. A tuple id of 0 and a cell no
// value id can hold are refused here.
func DecodeRow(d *relation.Decoder, arity int, prev relation.TupleID) SnapTuple {
	t := SnapTuple{ID: prev + relation.TupleID(d.Varint("tuple id"))}
	if t.ID == 0 && d.Err() == nil {
		d.Failf("tuple id 0")
	}
	t.IDs = make([]relation.ValueID, arity)
	for a := 0; a < arity && d.Err() == nil; a++ {
		c := d.Uvarint("cell")
		if c > math.MaxUint32 {
			d.Failf("cell %d past every value id", c)
		}
		t.IDs[a] = relation.ValueID(c)
	}
	t.W = d.Weights(arity)
	return t
}

// WriteFileSynced creates (or truncates) path, fills it through a
// buffered writer and fsyncs it. The file's name is not yet durable: the
// caller either commits it through something written later (the store's
// manifest) or is WriteFileAtomic.
func WriteFileSynced(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic is the crash-safe file replacement every commit point
// goes through: write fills a temporary sibling, which is fsynced and
// renamed over path, so a crash can only leave the old content or the
// new, never a torn file. The directory is fsynced after the rename so
// the new name itself survives a crash.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	err := WriteFileSynced(tmp, write)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making the creations, renames and removals
// inside it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// genExt maps each generation-numbered file kind to its extension.
var genExt = map[string]string{"wal": ".log", "pages": ".dat", "manifest": ".mft"}

// GenName names the file of the given kind at generation gen:
// <kind>-<ten digits><extension>.
func GenName(kind string, gen uint64) string {
	return fmt.Sprintf("%s-%010d%s", kind, gen, genExt[kind])
}

// ParseGenName inverts GenName. ok is false for every name GenName does
// not produce — other files, unknown kinds, and the .tmp siblings of
// writes in flight.
func ParseGenName(name string) (kind string, gen uint64, ok bool) {
	kind, rest, _ := strings.Cut(name, "-")
	ext, known := genExt[kind]
	gen, err := strconv.ParseUint(strings.TrimSuffix(rest, ext), 10, 64)
	if !known || err != nil || GenName(kind, gen) != name {
		return "", 0, false
	}
	return kind, gen, true
}
