package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfdclean"
	"cfdclean/workload"
)

// writeFixture materializes a small dirty workload plus constraint file.
func writeFixture(t *testing.T) (dir string) {
	t.Helper()
	dir = t.TempDir()
	ds, err := workload.Generate(workload.Config{Size: 300, NoiseRate: 0.05, Seed: 5, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := os.Create(filepath.Join(dir, "dirty.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfdclean.WriteCSV(ds.Dirty, dirty); err != nil {
		t.Fatal(err)
	}
	dirty.Close()
	clean, err := os.Create(filepath.Join(dir, "clean.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfdclean.WriteCSV(ds.Opt, clean); err != nil {
		t.Fatal(err)
	}
	clean.Close()
	cf, err := os.Create(filepath.Join(dir, "cfds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfdclean.FormatCFDs(cf, ds.CFDs); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	return dir
}

func TestRunBatchMode(t *testing.T) {
	dir := writeFixture(t)
	out := filepath.Join(dir, "repaired.csv")
	err := run(filepath.Join(dir, "dirty.csv"), filepath.Join(dir, "cfds.txt"),
		"batch", out, filepath.Join(dir, "clean.csv"), "vio", false, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	repaired, err := cfdclean.ReadCSV("order", f)
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := os.Open(filepath.Join(dir, "cfds.txt"))
	defer cf.Close()
	cfds, err := cfdclean.ParseCFDs(repaired.Schema(), cf)
	if err != nil {
		t.Fatal(err)
	}
	if !cfdclean.Satisfies(repaired, cfdclean.Normalize(cfds)) {
		t.Fatal("CLI output violates the constraints")
	}
}

func TestRunIncModeOrderings(t *testing.T) {
	dir := writeFixture(t)
	for _, ord := range []string{"linear", "vio", "weight"} {
		out := filepath.Join(dir, "repaired-"+ord+".csv")
		err := run(filepath.Join(dir, "dirty.csv"), filepath.Join(dir, "cfds.txt"),
			"inc", out, "", ord, false, 2, 0)
		if err != nil {
			t.Fatalf("ordering %s: %v", ord, err)
		}
	}
}

func TestRunDetectMode(t *testing.T) {
	dir := writeFixture(t)
	err := run(filepath.Join(dir, "dirty.csv"), filepath.Join(dir, "cfds.txt"),
		"batch", "", "", "vio", true, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
}

// TestReportTruncation: the listing says it was truncated only when
// violations were left out — not when there are exactly -limit of them.
func TestReportTruncation(t *testing.T) {
	const limit = 2
	for _, c := range []struct {
		rows      string
		truncated bool
	}{
		{"212,PHI\n212,BOS\n", false},        // exactly limit violations
		{"212,PHI\n212,BOS\n212,LA\n", true}, // limit+1
	} {
		rel, err := cfdclean.ReadCSV("data", strings.NewReader("AC,CT\n"+c.rows))
		if err != nil {
			t.Fatal(err)
		}
		cfds, err := cfdclean.ParseCFDs(rel.Schema(), strings.NewReader("cfd phi1: [AC] -> [CT]\n(212 || NYC)\n"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := report(&out, rel, cfdclean.Normalize(cfds), limit); err != nil {
			t.Fatal(err)
		}
		listed := strings.Count(out.String(), "  tuple ")
		if listed != limit {
			t.Errorf("%q: listed %d violations, want %d:\n%s", c.rows, listed, limit, &out)
		}
		if got := strings.Contains(out.String(), "truncated"); got != c.truncated {
			t.Errorf("%q: truncated %v, want %v:\n%s", c.rows, got, c.truncated, &out)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	dir := writeFixture(t)
	if err := run(filepath.Join(dir, "missing.csv"), filepath.Join(dir, "cfds.txt"),
		"batch", "", "", "vio", false, 2, 0); err == nil {
		t.Fatal("missing data file accepted")
	}
	if err := run(filepath.Join(dir, "dirty.csv"), filepath.Join(dir, "cfds.txt"),
		"nope", "", "", "vio", false, 2, 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run(filepath.Join(dir, "dirty.csv"), filepath.Join(dir, "cfds.txt"),
		"inc", "", "", "sideways", false, 2, 0); err == nil {
		t.Fatal("unknown ordering accepted")
	}
	// Malformed CFD file: errors, not panics.
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("cfd broken header without arrow\n(_)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(dir, "dirty.csv"), bad,
		"batch", "", "", "vio", false, 2, 0); err == nil {
		t.Fatal("malformed CFD file accepted")
	}
}
