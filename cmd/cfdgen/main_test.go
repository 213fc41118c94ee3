package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"cfdclean"
	"cfdclean/internal/relation"
	"cfdclean/workload"
)

func TestRunWritesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 300, 0.05, 0.5, 0, 7); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"clean.csv", "dirty.csv", "weights.csv", "cfds.txt"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	// The artifacts compose: dirty.csv parses, cfds.txt parses against
	// its schema, and the clean file satisfies the constraints.
	df, err := os.Open(filepath.Join(dir, "clean.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	rel, err := cfdclean.ReadCSV("order", df)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := os.Open(filepath.Join(dir, "cfds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	cfds, err := cfdclean.ParseCFDs(rel.Schema(), cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfds) != 7 {
		t.Fatalf("parsed %d CFDs, want 7", len(cfds))
	}
	if !cfdclean.Satisfies(rel, cfdclean.Normalize(cfds)) {
		t.Fatal("clean.csv violates cfds.txt")
	}
}

// TestWeightsFileFormat: weights.csv is what relation.ReadWeightsCSV reads
// against dirty.csv, and every weight it loads is the generator's, bit for
// bit.
func TestWeightsFileFormat(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 100, 0.1, 0.5, 0, 3); err != nil {
		t.Fatal(err)
	}
	df, err := os.Open(filepath.Join(dir, "dirty.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	rel, err := cfdclean.ReadCSV("order", df)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := os.Open(filepath.Join(dir, "weights.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	if err := relation.ReadWeightsCSV(rel, wf); err != nil {
		t.Fatal(err)
	}

	ds, err := workload.Generate(workload.Config{
		Size: 100, NoiseRate: 0.1, ConstShare: 0.5, Seed: 3, Weights: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := rel.Tuples(), ds.Dirty.Tuples()
	if len(got) != len(want) {
		t.Fatalf("read %d tuples, generated %d", len(got), len(want))
	}
	fractional := 0
	for i, tu := range got {
		for a := range tu.Vals {
			g, w := tu.Weight(a), want[i].Weight(a)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("tuple %d attribute %d: weight %v, generated %v", i, a, g, w)
			}
			if w != 1 {
				fractional++
			}
		}
	}
	if fractional == 0 {
		t.Fatal("every generated weight is 1; the round trip checks nothing")
	}
}
