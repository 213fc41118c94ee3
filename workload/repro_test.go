package workload_test

import (
	"bytes"
	"testing"

	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/workload"
)

// TestGenerateReproducible asserts the documented contract that identical
// Configs yield identical datasets, byte for byte, under the interned
// substrate (value ids are assigned in insertion order, so two runs of
// the generator produce identical relations and dictionaries).
func TestGenerateReproducible(t *testing.T) {
	cfg := workload.Config{Size: 400, NoiseRate: 0.08, ConstShare: 0.5, Seed: 42, Weights: true}
	a, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := relation.WriteCSV(a.Dirty, &bufA); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteCSV(b.Dirty, &bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed generated different dirty databases")
	}
	bufA.Reset()
	bufB.Reset()
	if err := relation.WriteWeightsCSV(a.Dirty, &bufA); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteWeightsCSV(b.Dirty, &bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed generated different weight vectors")
	}
}

// TestRepairReproducible asserts that a workload run is reproducible end
// to end: the same seed yields the same repair cost, change count and
// repaired database.
func TestRepairReproducible(t *testing.T) {
	cfg := workload.Config{Size: 250, NoiseRate: 0.08, ConstShare: 0.5, Seed: 7}
	type outcome struct {
		cost    float64
		changes int
		csv     []byte
	}
	run := func() outcome {
		t.Helper()
		ds, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := increpair.Repair(ds.Dirty, ds.Sigma, &increpair.Options{
			Ordering: increpair.ByViolations,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(res.Repair, &buf); err != nil {
			t.Fatal(err)
		}
		return outcome{cost: res.Cost, changes: res.Changes, csv: buf.Bytes()}
	}
	base := run()
	if base.changes == 0 {
		t.Fatal("repair changed nothing; test is vacuous")
	}
	got := run()
	if got.cost != base.cost {
		t.Fatalf("repair cost %v, want %v", got.cost, base.cost)
	}
	if got.changes != base.changes {
		t.Fatalf("%d changes, want %d", got.changes, base.changes)
	}
	if !bytes.Equal(got.csv, base.csv) {
		t.Fatal("repaired database differs from the first run")
	}
}
