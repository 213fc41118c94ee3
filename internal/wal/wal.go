package wal

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// Version is the on-disk format version byte shared by WAL files and
// snapshot streams, and the only one written or read. Bump it on any
// incompatible codec change. Version 5 drops three header fields no
// reader used (a retired workers count, a quota flag byte and the store
// kind with its generation); version 4 wrote a snapshot's rows as ids
// into the constants each chunk carries (snapshot.go). A file of any
// other version is refused.
const Version = 5

const (
	walMagic  = "CFDWAL"
	snapMagic = "CFDSNAP"
)

// Log is an append-only WAL file. It is not safe for concurrent use;
// the server gives each session's single-writer worker exclusive
// ownership of its log, which is the same discipline the session's
// relation already requires.
type Log struct {
	f     *os.File
	dirty bool // appended since last Sync
}

// Create makes a new empty log at path (truncating any existing file)
// and returns once the header and the file's directory entry are on
// disk: fsync of the file alone does not promise the entry, and recovery
// treats a missing tip log as "anchor a fresh generation" — every batch
// acknowledged into a log whose name a power loss erased would be gone
// without a trace. One extra fsync per rotation.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(AppendHeader(nil, walMagic, Version)); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Open reads an existing log: it validates the header, decodes every
// intact record, discards a torn or corrupted tail (truncating the file
// back to the last intact boundary so appends continue cleanly), and
// returns the payloads in log order. discarded reports how many bytes
// of damaged tail were dropped — zero for a cleanly closed log.
func Open(path string) (l *Log, payloads [][]byte, discarded int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	// A bad header is ErrCorrupt — nothing in the file can be trusted.
	if err := CheckHeader(r, walMagic, Version); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	payloads, n := scanFrames(r)
	good := int64(len(walMagic)+1) + n
	discarded = st.Size() - good
	if discarded > 0 {
		if err = f.Truncate(good); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return &Log{f: f}, payloads, discarded, nil
}

// scanFrames reads records from r up to the first that does not verify,
// returning the intact payloads and how many bytes they span. A torn or
// checksum-failing record ends the scan without error — tail damage is
// the expected crash artifact, and this is the one place it is tolerated.
func scanFrames(r io.Reader) (payloads [][]byte, n int64) {
	for {
		p, err := ReadFrame(r, maxPayload)
		if err != nil {
			return payloads, n
		}
		payloads = append(payloads, p)
		n += frameHeaderLen + int64(len(p))
	}
}

// Append writes one record. The bytes reach the file (and the OS page
// cache) before Append returns; they reach the disk at the next Sync,
// per the owner's fsync policy. A payload longer than a record can state
// is refused and nothing is written.
func (l *Log) Append(payload []byte) error {
	if err := checkPayload(len(payload)); err != nil {
		return err
	}
	if _, err := l.f.Write(AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)); err != nil {
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

// WriteSnapshotFile atomically writes a snapshot stream to a file (see
// WriteFileAtomic): a crash mid-write can never leave a half-written
// snapshot under the final name. The service keeps no snapshot file (a
// generation is the page store's manifest); the benchmark harness times
// this write.
func WriteSnapshotFile(path string, s *Snapshot) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, s) })
}
