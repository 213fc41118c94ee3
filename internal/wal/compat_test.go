package wal_test

// Format versions: this build writes and reads version 3 only. A data
// directory written by any other version — older or from the future —
// is refused loudly, by both file readers, with an error that wraps
// ErrCorrupt and names the version found and the one supported. The
// files themselves are otherwise intact current-format files with only
// the header's version byte changed, so the version check is the one
// thing that can refuse them.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// otherVersions is the refusal table: format versions no file this build
// reads may carry — older ones and one from the future.
var otherVersions = []byte{1, 2, 99}

func TestOtherFormatVersionsAreRefused(t *testing.T) {
	rec := record(t, 77, increpair.Linear, 3, true)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal-0000000000.log")
	l, err := wal.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rec.payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Unmodified, both files read back: what is refused below is the
	// version byte and nothing else.
	if _, err := wal.ReadSnapshot(bytes.NewReader(rec.snap0)); err != nil {
		t.Fatalf("current-version snapshot: %v", err)
	}
	if _, payloads, _, err := wal.Open(walPath); err != nil || len(payloads) != len(rec.payloads) {
		t.Fatalf("current-version wal: %d records, err %v", len(payloads), err)
	}

	for _, ver := range otherVersions {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			check := func(kind string, err error) {
				t.Helper()
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Fatalf("%s stamped version %d: got %v, want ErrCorrupt", kind, ver, err)
				}
				msg := err.Error()
				if !strings.Contains(msg, fmt.Sprintf("format version %d", ver)) ||
					!strings.Contains(msg, fmt.Sprintf("only version %d", wal.Version)) {
					t.Fatalf("%s refusal does not name the versions: %v", kind, err)
				}
			}
			snapPath := filepath.Join(t.TempDir(), "snap-0000000000.snap")
			snap := append([]byte(nil), rec.snap0...)
			snap[len("CFDSNAP")] = ver
			if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := wal.ReadSnapshotFile(snapPath)
			check("snapshot", err)

			log := append([]byte(nil), walBytes...)
			log[len("CFDWAL")] = ver
			logPath := filepath.Join(t.TempDir(), "wal-0000000000.log")
			if err := os.WriteFile(logPath, log, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err = wal.Open(logPath)
			check("wal", err)
		})
	}
}

// FuzzDecodeSnapshot holds the snapshot decoders behind the frame to
// their contract: the fuzzer writes a file's version byte, its header
// (prefix) record and up to two tuple chunk records, and the test frames
// them with valid checksums, so the bytes reach the prefix and chunk
// decoders rather than dying at the CRC. On the file and on every prefix
// of it cut at a record boundary, the chunk reader (SnapshotReader),
// ReadSnapshot and the whole-stream reader it replaced
// (ReadSnapshotWhole) agree: the same rows or the same refusal, word for
// word; a cut file is refused whenever the whole one is accepted.
// Whatever ReadSnapshot accepts, WriteSnapshot writes to a stream that
// reads back to the same snapshot. Snapshots are compared by their
// encodings, since a cost or a weight may be NaN.
func FuzzDecodeSnapshot(f *testing.F) {
	rec := record(f, 77, increpair.Linear, 3, true)
	r := bytes.NewReader(rec.snap0[len("CFDSNAP")+1:])
	prefix, err := wal.ReadFrame(r, 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := wal.ReadFrame(r, 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	for _, ver := range append([]byte{wal.Version}, otherVersions...) {
		f.Add(ver, prefix, chunk, []byte(nil))
	}
	// An empty relation's file is its header record alone.
	empty := &wal.Snapshot{Name: "empty", Relname: "r", Attrs: []string{"a", "b"}}
	header, _ := snapshotRecords(f, empty)
	f.Add(byte(wal.Version), header, []byte(nil), []byte(nil))
	// Three rows in two chunks: a header promising 3, then chunks of 2
	// and 1 built from the rows of one-row snapshots.
	var rows [][]byte
	for i, w := range [][]float64{nil, {0.25, 1}, nil} {
		one := *empty
		one.Tuples = []wal.SnapTuple{{ID: relation.TupleID(i + 1), Vals: []relation.Value{relation.S("x"), relation.NullValue}, W: w}}
		_, chunks := snapshotRecords(f, &one)
		rows = append(rows, chunks[0][1:]) // behind the chunk's row count, 1
	}
	three := *empty
	three.Tuples = make([]wal.SnapTuple, 3)
	for i := range three.Tuples {
		three.Tuples[i] = wal.SnapTuple{ID: relation.TupleID(i + 1), Vals: make([]relation.Value, 2)}
	}
	header3, _ := snapshotRecords(f, &three)
	first := append(append([]byte{2}, rows[0]...), rows[1]...)
	f.Add(byte(wal.Version), header3, first, append([]byte{1}, rows[2]...))
	// The same with a second chunk of two rows, one past the header's.
	f.Add(byte(wal.Version), header3, first, append(append([]byte{2}, rows[2]...), rows[0]...))
	f.Fuzz(func(t *testing.T, ver byte, prefix, chunk1, chunk2 []byte) {
		file := wal.AppendFrame(wal.AppendHeader(nil, "CFDSNAP", ver), prefix)
		cuts := []int{len("CFDSNAP") + 1, len(file)}
		for _, c := range [][]byte{chunk1, chunk2} {
			if len(c) > 0 {
				file = wal.AppendFrame(file, c)
				cuts = append(cuts, len(file))
			}
		}
		s, err := agreeingReaders(t, file)
		for _, cut := range cuts[:len(cuts)-1] {
			if _, cerr := agreeingReaders(t, file[:cut]); err == nil && cerr == nil {
				t.Fatalf("the file is accepted, and so is its first %d of %d bytes", cut, len(file))
			}
		}
		if err == nil {
			var w1, w2 bytes.Buffer
			if err := wal.WriteSnapshot(&w1, s); err != nil {
				t.Fatal(err)
			}
			s2, err := wal.ReadSnapshot(bytes.NewReader(w1.Bytes()))
			if err != nil {
				t.Fatalf("rewritten snapshot file does not read: %v", err)
			}
			if err := wal.WriteSnapshot(&w2, s2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
				t.Fatal("rewritten snapshot file reads back to another snapshot")
			}
		}
	})
}

// snapshotRecords returns the payloads of s's snapshot stream: its
// header record and its chunk records.
func snapshotRecords(tb testing.TB, s *wal.Snapshot) (header []byte, chunks [][]byte) {
	tb.Helper()
	var b bytes.Buffer
	if err := wal.WriteSnapshot(&b, s); err != nil {
		tb.Fatal(err)
	}
	r := bytes.NewReader(b.Bytes()[len("CFDSNAP")+1:])
	header, err := wal.ReadFrame(r, 1<<30)
	for err == nil {
		var c []byte
		if c, err = wal.ReadFrame(r, 1<<30); err == nil {
			chunks = append(chunks, c)
		}
	}
	if err != io.EOF {
		tb.Fatal(err)
	}
	return header, chunks
}

// agreeingReaders reads b with the chunk reader, ReadSnapshot and
// ReadSnapshotWhole, fails t unless all three return the same snapshot or
// the same error, and returns what they returned.
func agreeingReaders(t *testing.T, b []byte) (*wal.Snapshot, error) {
	t.Helper()
	want, wantErr := wal.ReadSnapshotWhole(bytes.NewReader(b))
	got, err := wal.ReadSnapshot(bytes.NewReader(b))
	streamed, serr := readByChunks(b)
	for _, c := range []struct {
		name string
		s    *wal.Snapshot
		err  error
	}{{"ReadSnapshot", got, err}, {"SnapshotReader", streamed, serr}} {
		if fmt.Sprint(c.err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, the whole-stream reader's %v", c.name, c.err, wantErr)
		}
		if wantErr == nil && !bytes.Equal(encodeSnapshot(t, c.s), encodeSnapshot(t, want)) {
			t.Fatalf("%s: another snapshot than the whole-stream reader's", c.name)
		}
	}
	return want, wantErr
}

// readByChunks reads b through SnapshotReader, row by row.
func readByChunks(b []byte) (*wal.Snapshot, error) {
	s, rows, err := wal.NewSnapshotReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	for {
		t, ok, err := rows.Next()
		if err != nil {
			if _, _, again := rows.Next(); again != err {
				return nil, fmt.Errorf("Next after %v returned %v", err, again)
			}
			return nil, err
		}
		if !ok {
			return s, nil
		}
		s.Tuples = append(s.Tuples, t)
	}
}

func encodeSnapshot(t *testing.T, s *wal.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wal.WriteSnapshot(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
