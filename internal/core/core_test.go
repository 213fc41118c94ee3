package core

import (
	"math"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
	"cfdclean/internal/sampling"
)

func dataset(t *testing.T, size int, rho float64) *gen.Dataset {
	t.Helper()
	ds, err := gen.New(gen.Config{Size: size, NoiseRate: rho, Seed: 42, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestConfigValidation(t *testing.T) {
	ds := dataset(t, 50, 0)
	bad := []Config{
		{},
		{Sigma: ds.Sigma},                       // missing ε, δ
		{Sigma: ds.Sigma, Eps: 0.1},             // missing δ
		{Sigma: ds.Sigma, Eps: 1.5, Delta: 0.9}, // ε out of range
		{Sigma: ds.Sigma, Eps: 0.1, Delta: -1},  // δ out of range
		{Sigma: ds.Sigma, Eps: math.NaN(), Delta: 0.9},
		{Sigma: ds.Sigma, Eps: 0.1, Delta: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(Config{Sigma: ds.Sigma, Eps: 0.1, Delta: 0.9}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestUnsatisfiableSigmaRejected(t *testing.T) {
	s := relation.MustSchema("r", "A", "B")
	// Two constant rows forcing B to different constants for every A.
	phi := cfd.MustNew("bad", s, []string{"A"}, []string{"B"},
		[]cfd.Cell{cfd.W, cfd.C("x")},
		[]cfd.Cell{cfd.W, cfd.C("y")})
	if _, err := New(Config{Sigma: phi.Normalize(), Eps: 0.1, Delta: 0.9}); err == nil {
		t.Fatal("unsatisfiable Σ accepted")
	}
}

func TestCleanAcceptsCleanData(t *testing.T) {
	ds := dataset(t, 300, 0)
	c, err := New(Config{Sigma: ds.Sigma, Eps: 0.05, Delta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Clean(ds.Dirty, &sampling.Oracle{Opt: ds.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("clean database rejected")
	}
	if len(out.Rounds) != 1 {
		t.Fatalf("clean database took %d rounds", len(out.Rounds))
	}
	if !cfd.Satisfies(out.Repair, ds.Sigma) {
		t.Fatal("output violates Σ")
	}
}

func TestCleanBatchMode(t *testing.T) {
	ds := dataset(t, 600, 0.04)
	c, err := New(Config{Sigma: ds.Sigma, Eps: 0.10, Delta: 0.9, Mode: BatchMode})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Clean(ds.Dirty, &sampling.Oracle{Opt: ds.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(out.Repair, ds.Sigma) {
		t.Fatal("repair violates Σ")
	}
	if len(out.Rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	for i, r := range out.Rounds {
		if r.Report == nil {
			t.Fatalf("round %d missing report", i)
		}
	}
}

func TestCleanIncrementalMode(t *testing.T) {
	ds := dataset(t, 600, 0.04)
	c, err := New(Config{Sigma: ds.Sigma, Eps: 0.10, Delta: 0.9, Mode: IncrementalMode})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Clean(ds.Dirty, &sampling.Oracle{Opt: ds.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(out.Repair, ds.Sigma) {
		t.Fatal("repair violates Σ")
	}
}

// rejectOnce flags everything in round 0 and nothing afterwards,
// exercising the feedback path deterministically.
type rejectOnce struct {
	oracle *sampling.Oracle
	round  int
}

func (u *rejectOnce) Inspect(sample []*relation.Tuple) []relation.TupleID {
	u.round++
	if u.round == 1 {
		ids := make([]relation.TupleID, len(sample))
		for i, t := range sample {
			ids[i] = t.ID
		}
		return ids
	}
	return u.oracle.Inspect(sample)
}

func (u *rejectOnce) Correct(id relation.TupleID) (*relation.Tuple, bool) {
	return u.oracle.Correct(id)
}

func TestFeedbackLoopAppliesCorrections(t *testing.T) {
	ds := dataset(t, 400, 0.05)
	c, err := New(Config{Sigma: ds.Sigma, Eps: 0.9, Delta: 0.6, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	user := &rejectOnce{oracle: &sampling.Oracle{Opt: ds.Opt}}
	out, err := c.Clean(ds.Dirty, user)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rounds) < 2 {
		t.Fatalf("want ≥ 2 rounds, got %d", len(out.Rounds))
	}
	if out.Rounds[0].Corrections == 0 {
		t.Fatal("round 0 rejected but no corrections recorded")
	}
	if !cfd.Satisfies(out.Repair, ds.Sigma) {
		t.Fatal("final repair violates Σ")
	}
}

func TestMaxRoundsRespected(t *testing.T) {
	ds := dataset(t, 200, 0.05)
	c, err := New(Config{Sigma: ds.Sigma, Eps: 0.0001, Delta: 0.999, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A user that flags everything forever: the loop must stop at 2.
	out, err := c.Clean(ds.Dirty, flagAll{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Fatal("accepted despite hostile user")
	}
	if len(out.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(out.Rounds))
	}
}

type flagAll struct{}

func (flagAll) Inspect(sample []*relation.Tuple) []relation.TupleID {
	ids := make([]relation.TupleID, len(sample))
	for i, t := range sample {
		ids[i] = t.ID
	}
	return ids
}

func TestReviseSigmaHook(t *testing.T) {
	ds := dataset(t, 200, 0.05)
	called := 0
	c, err := New(Config{
		Sigma: ds.Sigma, Eps: 0.0001, Delta: 0.999, MaxRounds: 2,
		ReviseSigma: func(round int, sigma []*cfd.Normal) []*cfd.Normal {
			called++
			return nil // keep Σ
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Clean(ds.Dirty, flagAll{}); err != nil {
		t.Fatal(err)
	}
	if called == 0 {
		t.Fatal("ReviseSigma never invoked on rejection")
	}
}

func TestCleanDelta(t *testing.T) {
	ds := dataset(t, 500, 0)
	// Build a small dirty ΔD by perturbing copies of existing tuples.
	dirty, err := gen.New(gen.Config{Size: 500, NoiseRate: 1, Seed: 42, Weights: true})
	if err != nil {
		t.Fatal(err)
	}
	var delta []*relation.Tuple
	for _, id := range dirty.DirtyIDs[:10] {
		tp := dirty.Dirty.Tuple(id).Clone()
		tp.ID = relation.TupleID(100000 + int(id)) // fresh ids
		delta = append(delta, tp)
	}
	c, err := New(Config{Sigma: ds.Sigma, Eps: 0.5, Delta: 0.6, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.CleanDelta(ds.Opt, delta, &sampling.Oracle{Opt: ds.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(out.Repair, ds.Sigma) {
		t.Fatal("ΔD repair violates Σ")
	}
	if out.Repair.Size() != ds.Opt.Size()+len(delta) {
		t.Fatalf("repair size %d, want %d", out.Repair.Size(), ds.Opt.Size()+len(delta))
	}
	// The trusted base D must be untouched.
	for _, tp := range ds.Opt.Tuples() {
		got := out.Repair.Tuple(tp.ID)
		if got == nil || !relation.StrictEqVals(got.Vals, tp.Vals) {
			t.Fatalf("trusted tuple %d modified", tp.ID)
		}
	}
}

func TestInputNotModified(t *testing.T) {
	ds := dataset(t, 300, 0.05)
	before := ds.Dirty.Clone()
	c, err := New(Config{Sigma: ds.Sigma, Eps: 0.2, Delta: 0.9, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Clean(ds.Dirty, &sampling.Oracle{Opt: ds.Opt}); err != nil {
		t.Fatal(err)
	}
	for _, tp := range before.Tuples() {
		got := ds.Dirty.Tuple(tp.ID)
		if !relation.StrictEqVals(got.Vals, tp.Vals) {
			t.Fatalf("input tuple %d modified by Clean", tp.ID)
		}
	}
}

func TestModeString(t *testing.T) {
	if BatchMode.String() != "batch" || IncrementalMode.String() != "incremental" {
		t.Fatal("mode names changed")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must stringify")
	}
}
