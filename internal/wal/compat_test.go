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

	for _, ver := range []byte{1, 2, 99} {
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
