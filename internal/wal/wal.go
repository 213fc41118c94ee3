package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Version is the format version byte of snapshot streams, and the only
// one written or read. Bump it on any incompatible codec change. Version
// 5 drops three header fields no reader used (a retired workers count, a
// quota flag byte and the store kind with its generation); version 4
// wrote a snapshot's rows as ids into the constants each chunk carries
// (snapshot.go). A stream of any other version is refused.
const Version = 5

// WALVersion is the format version byte of WAL files, and the only one
// written or read. Version 6 numbers a record's strings in the file's
// table (batch.go); version 5, which wrote every value inline, and every
// other version are refused with ErrVersion.
const WALVersion = 6

const (
	walMagic  = "CFDWAL"
	snapMagic = "CFDSNAP"
)

// Log is an append-only WAL file and its string table: every string its
// batch records declared, which the log holds until it is closed — one
// generation's distinct values. It is not safe for concurrent use; the
// server gives each session's committer exclusive ownership of its log.
type Log struct {
	f     *os.File
	tab   strTable // the strings the file's batch records declared
	dirty bool     // appended since last Sync
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
	if _, err = f.Write(AppendHeader(nil, walMagic, WALVersion)); err == nil {
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
// intact record as a batch in the file's scope (rebuilding the file's
// string table, so that AppendBatch continues its numbering), discards a
// torn or corrupted tail (truncating the file back to the last intact
// boundary so appends continue cleanly), and returns the batches in log
// order. discarded reports how many bytes of damaged tail were dropped —
// zero for a cleanly closed log. A header of another version is refused
// with ErrVersion and the file left as it is. A record that verifies but
// does not decode ends what can be read: Open returns no Log, the
// batches before that record (a non-nil slice) and an error naming it.
func Open(path string) (l *Log, batches []*Batch, discarded int64, err error) {
	l, payloads, discarded, err := openFrames(path)
	if err != nil {
		return nil, nil, 0, err
	}
	batches = make([]*Batch, 0, len(payloads))
	for i, p := range payloads {
		b, err := decodeBatch(p, &l.tab)
		if err != nil {
			l.f.Close()
			return nil, batches, 0, fmt.Errorf("record %d: %w", i, err)
		}
		batches = append(batches, b)
	}
	return l, batches, discarded, nil
}

// openFrames is Open below the batch codec: the intact records' payloads.
func openFrames(path string) (l *Log, payloads [][]byte, discarded int64, err error) {
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
	if err := CheckHeader(r, walMagic, WALVersion); err != nil {
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

// Append writes one raw record; AppendBatch writes a batch through it,
// and a log that Open is to read again holds AppendBatch's records only.
// The bytes reach the file (and the OS page
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

// AppendBatch appends b as the log's next record, in the file's scope:
// the record declares only the strings no earlier record of the file
// did, and every cell names an entry of the file's table. It returns the
// bytes appended, the record's header included. A record that is not
// written leaves the table as it was.
func (l *Log) AppendBatch(b *Batch) (int, error) {
	base := len(l.tab.strs)
	payload := encodeBatch(b, &l.tab)
	if err := l.Append(payload); err != nil {
		l.tab.truncate(base)
		return 0, err
	}
	return frameHeaderLen + len(payload), nil
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
