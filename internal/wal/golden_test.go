package wal_test

// The golden WAL fixture: one recorded session — snapshot plus WAL —
// committed under testdata/golden/wal-session, with the expected
// post-replay state next to it. The recovery battery proves today's
// writer and today's reader agree; this test proves today's reader
// still understands *yesterday's files*. Any codec change that breaks
// previously written logs fails here loudly; the escape hatch is an
// explicit format break — bump wal.Version or wal.WALVersion (the
// version byte the snapshot's header or the WAL's carries) so old files
// are rejected as unreadable rather than
// silently misread, and regenerate the fixture with
//
//	go test ./internal/wal -run TestGoldenWALReplay -update
//
// after convincing yourself the break is worth orphaning old data dirs.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cfdclean/internal/increpair"
	"cfdclean/internal/wal"
)

var updateWALGolden = flag.Bool("update", false, "regenerate the wal-session golden fixture")

const goldenDir = "../../testdata/golden/wal-session"

// goldenMeta pins the replayed session's non-CSV state.
type goldenMeta struct {
	FormatVersion    int     `json:"format_version"`
	WALFormatVersion int     `json:"wal_format_version"`
	Batches          int     `json:"batches"`
	Inserted         int     `json:"inserted"`
	Deleted          int     `json:"deleted"`
	Changes          int     `json:"changes"`
	Cost             float64 `json:"cost"`
	Watermark        int64   `json:"watermark"`
	Version          uint64  `json:"version"`
	Violations       int     `json:"violations"`
	Records          int     `json:"records"`
}

// goldenRecording regenerates the deterministic session the fixture
// pins: dirty base (so the snapshot embeds an initial cleaning), six
// random mixed batches, seed 101.
func goldenRecording(t *testing.T) *recording {
	return record(t, 101, increpair.Linear, 6, true)
}

func TestGoldenWALReplay(t *testing.T) {
	if *updateWALGolden {
		rec := goldenRecording(t)
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, "snapshot.snap"), rec.snap0, 0o644); err != nil {
			t.Fatal(err)
		}
		writeLog(t, filepath.Join(goldenDir, "wal.log"), rec.batches)
		final := rec.fps[len(rec.fps)-1]
		if err := os.WriteFile(filepath.Join(goldenDir, "expected.csv"), final.dump, 0o644); err != nil {
			t.Fatal(err)
		}
		meta := goldenMeta{
			FormatVersion:    wal.Version,
			WALFormatVersion: wal.WALVersion,
			Batches:          final.snap.Batches,
			Inserted:         final.snap.Inserted,
			Deleted:          final.snap.Deleted,
			Changes:          final.snap.Changes,
			Cost:             final.snap.Cost,
			Watermark:        int64(final.snap.Watermark),
			Version:          final.snap.Version,
			Violations:       final.snap.Violations,
			Records:          len(rec.batches),
		}
		mb, err := json.MarshalIndent(meta, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, "expected.json"), append(mb, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("wal-session fixture regenerated")
		return
	}

	snap, err := os.ReadFile(filepath.Join(goldenDir, "snapshot.snap"))
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var meta goldenMeta
	mb, err := os.ReadFile(filepath.Join(goldenDir, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.FormatVersion != wal.Version || meta.WALFormatVersion != wal.WALVersion {
		t.Fatalf("fixture was recorded at format versions %d (snapshot) and %d (wal), reader is at %d and %d: regenerate the fixture alongside the version bump",
			meta.FormatVersion, meta.WALFormatVersion, wal.Version, wal.WALVersion)
	}
	expected, err := os.ReadFile(filepath.Join(goldenDir, "expected.csv"))
	if err != nil {
		t.Fatal(err)
	}

	l, batches, discarded, err := wal.Open(filepath.Join(goldenDir, "wal.log"))
	if err != nil {
		t.Fatalf("committed wal.log no longer opens: %v", err)
	}
	l.Close()
	if discarded != 0 {
		t.Fatalf("committed wal.log reports %d damaged bytes", discarded)
	}
	if len(batches) != meta.Records {
		t.Fatalf("committed wal.log decodes to %d records, fixture recorded %d", len(batches), meta.Records)
	}

	got := restoreAndReplay(t, snap, batches)
	if !bytes.Equal(got.dump, expected) {
		t.Fatalf("replayed dump diverges from the committed expectation\nwant:\n%s\ngot:\n%s", expected, got.dump)
	}
	if got.snap.Batches != meta.Batches || got.snap.Inserted != meta.Inserted ||
		got.snap.Deleted != meta.Deleted || got.snap.Changes != meta.Changes ||
		got.snap.Cost != meta.Cost || int64(got.snap.Watermark) != meta.Watermark ||
		got.snap.Version != meta.Version || got.snap.Violations != meta.Violations {
		t.Fatalf("replayed state diverges from expected.json: %+v vs %+v", got.snap, meta)
	}

	// The golden run must itself be reproducible: re-recording the same
	// seed today yields the committed bytes. If this fails while the
	// replay above passes, the *writer* changed — old logs still read,
	// but new logs differ; decide whether that warrants a version bump.
	rec := goldenRecording(t)
	if !bytes.Equal(rec.snap0, snap) {
		t.Fatal("re-recorded snapshot bytes differ from the committed fixture (writer changed)")
	}
	committed, err := os.ReadFile(filepath.Join(goldenDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, again, rec.batches)
	if rewritten, err := os.ReadFile(again); err != nil || !bytes.Equal(rewritten, committed) {
		t.Fatalf("re-recorded wal.log differs from the committed fixture (writer changed; err %v)", err)
	}
}
