// Package wal is the durability substrate of the streaming-session
// stack: a length-prefixed, CRC-checked binary write-ahead log for
// relation mutation batches, plus full-state session snapshots. The
// relation journal (internal/relation) already exposes every accepted
// batch as a totally-ordered stream of typed Deltas; this package
// serializes that stream so a session can be reconstructed after a crash
// by loading the newest valid snapshot and replaying the batches logged
// after it (see increpair.RestoreSession and internal/server's
// persister).
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
// their readers pass that as the cap, and Log.Append and WriteSnapshot
// refuse a longer payload rather than frame it with a wrapped length.
//
// Five file kinds open with a header, and a reader accepts exactly the
// version its writer stamps — any other is refused with ErrCorrupt. A
// codec change that breaks old files must bump the version
// (TestFormatsByteIdentical and the golden fixture under
// testdata/golden/wal-session fail loudly when this is forgotten).
//
//	wal-<gen>.log       "CFDWAL"  4  record*  (Batch payloads)
//	snap-<gen>.snap     "CFDSNAP" 4  header-record chunk-record*
//	pages-<gen>.dat     "CFDPAGE" 2  (pageNo(u64 LE) record)*
//	manifest-<gen>.mft  "CFDSTOR" 2  record
//	dict.log            "CFDDICT" 2  (length(uvarint) bytes)*, unframed
//
// <gen> is ten decimal digits (GenName). A snapshot file streams a
// header record (everything through the tuple count) followed by bounded
// tuple-chunk records, so snapshots of any size are written and read
// without a relation-sized allocation; Batch and Snapshot (snapshot.go)
// define those payloads, internal/store the page and manifest payloads.
// A chunk record carries the constants its rows use for the first time
// in the image, then its rows, whose cells are ids into every constant
// written so far:
//
//	chunk  = nrows(uvarint) nstrs(uvarint) string* row*
//	string = len(uvarint) byte*   (image entry k is the k-th string)
//	row    = iddelta(varint) cell*arity wflag(u8) weight*
//	cell   = 0 (null) | k+1 (image entry k), uvarint
//
// iddelta is the row's tuple id minus the previous row's (0 before the
// first row), zig-zag encoded; weight is float64 bits (u64 LE), arity of
// them iff wflag is 1. The form is canonical and the reader refuses any
// other: every chunk but the last holds 4 096 rows, no string appears
// twice, every string is first used by a row of its own chunk and
// numbered in first-use order, no tuple id is 0, and no varint is longer
// than it must be.
// Replication (internal/cluster/ship) adds no snapshot layout: a shipped
// snapshot is the snap stream above, magic and version included, and a
// shipped frame carries one batch:
//
//	shipped snapshot    "CFDSNAP" 4  header-record chunk-record*
//	shipped frame       kind(u8)=2 record  (a Batch payload)
//
// Snapshot files, manifests and the follower-role marker are commit
// points, replaced atomically (WriteFileAtomic: temporary sibling, fsync,
// rename, directory fsync): a crash leaves the old file or the new one.
// Page files are written once and fsynced (WriteFileSynced)
// before the manifest that names them commits; until then nothing refers
// to them. The WAL and dict.log are appended in place: Create fsyncs the
// new log and its directory entry before the first append, Sync fsyncs
// appended records, and dict.log's appends are fsynced before the pages
// that reference them, any tail no manifest covers being truncated when
// the store is opened.
//
// # Crash semantics
//
// A crash can leave a torn record at the log's tail: a short header, a
// payload shorter than its declared length, or a payload whose checksum
// no longer matches. Open detects all three, reports how many intact
// records precede the damage, and truncates the file back to the last
// intact record boundary so the log is append-clean again. Damage is
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
)

// ErrCorrupt reports structural damage: a bad magic or version, a torn
// or checksum-failing record, or a payload that does not decode. Tail
// corruption inside Open is handled (discarded) and NOT returned as an
// error; ErrCorrupt surfaces where no valid prefix can be salvaged.
var ErrCorrupt = errors.New("wal: corrupt")

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
// match, and a version other than version is refused by name.
func CheckHeader(r io.Reader, magic string, version byte) error {
	h := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r, h); err != nil || string(h[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad %s header", ErrCorrupt, magic)
	}
	if ver := h[len(magic)]; ver != version {
		return fmt.Errorf("%w: %s format version %d, this build reads and writes only version %d", ErrCorrupt, magic, ver, version)
	}
	return nil
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
var genExt = map[string]string{"snap": ".snap", "wal": ".log", "pages": ".dat", "manifest": ".mft"}

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
