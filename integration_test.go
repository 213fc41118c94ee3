package cfdclean_test

// Cross-module integration and property tests: the theorems the paper
// proves about its algorithms (termination, Repr |= Σ — Theorems 4.2 and
// 5.3) must hold on randomized workloads across the parameter space, and
// the two engines plus the framework loop must compose.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cfdclean"
	"cfdclean/workload"
)

// TestRepairSatisfiesSigmaProperty: for random (size, ρ, const-share,
// seed) configurations, both engines terminate and their output satisfies
// Σ — the paper's Theorems 4.2 and 5.3.
func TestRepairSatisfiesSigmaProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	rng := rand.New(rand.NewSource(31))
	f := func(sizeRaw, rhoRaw, shareRaw, seedRaw uint32) bool {
		size := 100 + int(sizeRaw%900)
		rho := float64(rhoRaw%12) / 100
		share := 0.2 + float64(shareRaw%7)/10
		ds, err := workload.Generate(workload.Config{
			Size: size, NoiseRate: rho, ConstShare: share,
			Seed: int64(seedRaw), Weights: seedRaw%2 == 0,
		})
		if err != nil {
			t.Logf("generate: %v", err)
			return false
		}
		br, err := cfdclean.BatchRepair(ds.Dirty, ds.Sigma, nil)
		if err != nil {
			t.Logf("batch: %v", err)
			return false
		}
		if !cfdclean.Satisfies(br.Repair, ds.Sigma) {
			t.Logf("batch repair violates Σ (size=%d rho=%v)", size, rho)
			return false
		}
		ir, err := cfdclean.Repair(ds.Dirty, ds.Sigma, &cfdclean.IncOptions{
			Ordering: cfdclean.Ordering(seedRaw % 3),
		})
		if err != nil {
			t.Logf("inc: %v", err)
			return false
		}
		if !cfdclean.Satisfies(ir.Repair, ds.Sigma) {
			t.Logf("inc repair violates Σ (size=%d rho=%v)", size, rho)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestRepairIdempotent: repairing a repair changes nothing (it already
// satisfies Σ).
func TestRepairIdempotent(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Size: 600, NoiseRate: 0.05, Seed: 44, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := cfdclean.BatchRepair(ds.Dirty, ds.Sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cfdclean.BatchRepair(first.Repair, ds.Sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Changes != 0 {
		t.Fatalf("re-repair changed %d cells", second.Changes)
	}
}

// TestFrameworkAcceptsThenHolds: an accepted repair's true inaccuracy
// rate respects the ε bound (with the oracle, acceptance is grounded in
// real comparisons, so this should essentially always hold).
func TestFrameworkAcceptsThenHolds(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Size: 2000, NoiseRate: 0.04, Seed: 12, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.05
	cl, err := cfdclean.NewCleaner(cfdclean.CleanerConfig{
		Sigma: ds.Sigma, Eps: eps, Delta: 0.9, MaxRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Clean(ds.Dirty, &cfdclean.Oracle{Opt: ds.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Skip("not accepted within budget (statistical)")
	}
	bad := 0
	for _, tp := range out.Repair.Tuples() {
		want := ds.Opt.Tuple(tp.ID)
		for a := range tp.Vals {
			if tp.Vals[a].String() != want.Vals[a].String() {
				bad++
				break
			}
		}
	}
	rate := float64(bad) / float64(out.Repair.Size())
	// Allow statistical slack: the test guarantees the rate at confidence
	// δ, not absolutely.
	if rate > 2*eps {
		t.Fatalf("accepted repair has inaccuracy rate %.4f ≫ ε = %v", rate, eps)
	}
}
