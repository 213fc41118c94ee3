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
// # File formats
//
// Both file kinds open with a magic string and a single format version
// byte; writers stamp Version and readers accept exactly Version — a
// file of any other version is refused with ErrCorrupt. Any codec change
// that breaks old logs must bump Version (the golden fixture under
// testdata/golden/wal-session fails loudly when this is forgotten).
//
//	wal file      = "CFDWAL"  version(u8) record*
//	snapshot file = "CFDSNAP" version(u8) header-record chunk-record*
//	record        = length(u32 LE) crc(u32 LE) payload
//
// A snapshot file streams a header record (everything through the tuple
// count) followed by bounded tuple-chunk records, so snapshots of any
// size are written and read without a relation-sized allocation.
//
// crc is the CRC-32C (Castagnoli) checksum of the payload alone; length
// counts payload bytes. Record payloads are opaque at this layer —
// Batch and Snapshot (snapshot.go) define the two payload codecs.
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
// be trusted.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Version is the on-disk format version byte shared by WAL and snapshot
// files, and the only one written or read. Bump it on any incompatible
// codec change.
const Version = 3

// checkHeader verifies a file's magic+version header: the magic names
// the file kind, and a version other than Version is refused.
func checkHeader(b []byte, magic string) error {
	if len(b) < len(magic)+1 || string(b[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad %s header", ErrCorrupt, magic)
	}
	if ver := b[len(magic)]; ver != Version {
		return fmt.Errorf("%w: %s format version %d, this build reads and writes only version %d", ErrCorrupt, magic, ver, Version)
	}
	return nil
}

const (
	walMagic  = "CFDWAL"
	snapMagic = "CFDSNAP"

	frameHeaderLen = 8 // u32 length + u32 crc
	// maxRecordLen rejects absurd lengths decoded from a torn or
	// corrupted frame header before they drive a huge allocation.
	maxRecordLen = 1 << 28 // 256 MiB
)

// ErrCorrupt reports structural damage: a bad magic or version, a torn
// or checksum-failing record, or a payload that does not decode. Tail
// corruption inside Open is handled (discarded) and NOT returned as an
// error; ErrCorrupt surfaces where no valid prefix can be salvaged.
var ErrCorrupt = errors.New("wal: corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only WAL file. It is not safe for concurrent use;
// the server gives each session's single-writer worker exclusive
// ownership of its log, which is the same discipline the session's
// relation already requires.
type Log struct {
	f     *os.File
	path  string
	dirty bool // appended since last Sync
}

// Create makes a new empty log at path (truncating any existing file)
// and syncs the header to disk.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := append([]byte(walMagic), Version)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, path: path}, nil
}

// Open reads an existing log: it validates the header, decodes every
// intact record, discards a torn or corrupted tail (truncating the file
// back to the last intact boundary so appends continue cleanly), and
// returns the payloads in log order. discarded reports how many bytes
// of damaged tail were dropped — zero for a cleanly closed log.
func Open(path string) (l *Log, payloads [][]byte, discarded int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	payloads, good, scanErr := scanFrames(b, walMagic)
	if scanErr != nil {
		return nil, nil, 0, scanErr
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	discarded = int64(len(b)) - good
	if discarded > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &Log{f: f, path: path}, payloads, discarded, nil
}

// scanFrames walks the framed records after a magic+version header,
// returning the intact payloads and the offset just past the last intact
// record. A torn or checksum-failing record ends the scan without error
// (tail damage is the expected crash artifact); a bad header is
// ErrCorrupt — nothing in the file can be trusted.
func scanFrames(b []byte, magic string) (payloads [][]byte, good int64, err error) {
	if err := checkHeader(b, magic); err != nil {
		return nil, 0, err
	}
	pos := len(magic) + 1
	for {
		if pos == len(b) {
			return payloads, int64(pos), nil // clean end
		}
		if pos+frameHeaderLen > len(b) {
			return payloads, int64(pos), nil // torn frame header
		}
		ln := binary.LittleEndian.Uint32(b[pos:])
		crc := binary.LittleEndian.Uint32(b[pos+4:])
		if ln > maxRecordLen || pos+frameHeaderLen+int(ln) > len(b) {
			return payloads, int64(pos), nil // torn or garbage payload length
		}
		payload := b[pos+frameHeaderLen : pos+frameHeaderLen+int(ln)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return payloads, int64(pos), nil // checksum mismatch
		}
		payloads = append(payloads, payload)
		pos += frameHeaderLen + int(ln)
	}
}

// Append writes one record. The bytes reach the file (and the OS page
// cache) before Append returns; they reach the disk at the next Sync,
// per the owner's fsync policy.
func (l *Log) Append(payload []byte) error {
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderLen:], payload)
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.dirty = true
	return nil
}

// Sync flushes appended records to stable storage (fsync). It is a
// no-op when nothing was appended since the last Sync.
func (l *Log) Sync() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// Close syncs and closes the file.
func (l *Log) Close() error {
	serr := l.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// WriteSnapshotFile atomically writes a snapshot file (see
// WriteFileAtomic): a crash mid-write can never leave a half-written
// snapshot under the final name.
func WriteSnapshotFile(path string, s *Snapshot) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, s) })
}

// WriteFileAtomic is the crash-safe file replacement every durable
// marker in a session directory goes through: write fills a temporary
// sibling, which is fsynced and renamed over path, so a crash can only
// leave the old content or the new, never a torn file. The directory is
// fsynced after the rename so the new name itself survives a crash.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// ReadSnapshotFile reads and verifies a snapshot file written by
// WriteSnapshotFile, streaming record by record. Any damage — header,
// checksum, payload, torn chunk stream — returns an error wrapping
// ErrCorrupt so callers can fall back to an older generation.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", filepath.Base(path), err)
	}
	return s, nil
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
