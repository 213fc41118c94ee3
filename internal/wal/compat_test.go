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
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfdclean/internal/increpair"
	"cfdclean/internal/wal"
)

// otherVersions is the refusal table: format versions no file this build
// reads may carry — older ones and one from the future.
var otherVersions = []byte{1, 2, 99}

func TestOtherFormatVersionsAreRefused(t *testing.T) {
	rec := record(t, 77, increpair.Linear, 1, 3, true)
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
// (prefix) record and one tuple chunk record, and the test frames them
// with valid checksums, so the bytes reach the prefix and chunk decoders
// rather than dying at the CRC. Whatever ReadSnapshot accepts,
// WriteSnapshot writes to a stream that reads back to the same snapshot.
// Snapshots are compared by their encodings, since a cost or a weight
// may be NaN.
func FuzzDecodeSnapshot(f *testing.F) {
	rec := record(f, 77, increpair.Linear, 1, 3, true)
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
		f.Add(ver, prefix, chunk)
	}
	// An empty relation's file is its header record alone.
	var empty bytes.Buffer
	if err := wal.WriteSnapshot(&empty, &wal.Snapshot{Name: "empty", Relname: "r", Attrs: []string{"a"}}); err != nil {
		f.Fatal(err)
	}
	header, err := wal.ReadFrame(bytes.NewReader(empty.Bytes()[len("CFDSNAP")+1:]), 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(byte(wal.Version), header, []byte(nil))
	f.Fuzz(func(t *testing.T, ver byte, prefix, chunk []byte) {
		file := wal.AppendFrame(wal.AppendHeader(nil, "CFDSNAP", ver), prefix)
		if len(chunk) > 0 {
			file = wal.AppendFrame(file, chunk)
		}
		if s, err := wal.ReadSnapshot(bytes.NewReader(file)); err == nil {
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
