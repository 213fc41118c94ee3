package cfdclean_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfdclean"
	"cfdclean/workload"
)

// TestBatchRepairHashes repairs 20 generated N=500 databases (the
// benchmark's batch_clean shape: ρ = 5 %, 600 pattern rows, weights) and
// compares the SHA-256 of each repaired CSV with testdata/batch_hashes.txt.
// The file was recorded at the commit before PR 14, whose FINDV ran on
// strings through a full-Σ VioTuple per candidate; that implementation is
// gone, so these hashes are its oracle: any change to a plan, a tie-break
// or the component order moves at least one of them. Regenerate with
// -update only for a change that means to alter repairs.
func TestBatchRepairHashes(t *testing.T) {
	path := filepath.Join("testdata", "batch_hashes.txt")
	const first, count = 14001, 20
	got := make([]string, count)
	for i := range got {
		seed := int64(first + i)
		ds, err := workload.Generate(workload.Config{
			Size: 500, NoiseRate: 0.05, ConstShare: 0.5,
			PatternRows: 600, Weights: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cfdclean.BatchRepair(ds.Dirty, ds.Sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := cfdclean.WriteCSV(res.Repair, &b); err != nil {
			t.Fatal(err)
		}
		got[i] = fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	}
	lines := make([]string, count)
	for i, h := range got {
		lines[i] = fmt.Sprintf("%d %s", first+i, h)
	}
	checkRecorded(t, path, lines)
}

// checkRecorded compares lines with the file at path, or with -update
// rewrites the file from them.
func checkRecorded(t *testing.T, path string, lines []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s has %d lines, want %d", path, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("got %q, recorded %q", lines[i], want[i])
		}
	}
}
