package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// scenario builds Dopt (clean), D (noisy copy) and Repr (a repair that
// fixed most but not all noise), plus the constraint used to stratify.
func scenario(t testing.TB, n int, noiseRate, missRate float64) (dopt, d, repr *relation.Relation, sigma []*cfd.Normal) {
	t.Helper()
	s := relation.MustSchema("r", "zip", "CT")
	dopt = relation.New(s)
	rng := rand.New(rand.NewSource(5))
	zips := []string{"10012", "19014", "60601"}
	cities := map[string]string{"10012": "NYC", "19014": "PHI", "60601": "CHI"}
	for i := 0; i < n; i++ {
		z := zips[rng.Intn(len(zips))]
		dopt.MustInsert(relation.NewTuple(0, z, cities[z]))
	}
	d = dopt.Clone()
	repr = dopt.Clone()
	for _, tp := range d.Tuples() {
		if rng.Float64() < noiseRate {
			d.Set(tp.ID, 1, relation.S("BAD"))
			if rng.Float64() < missRate {
				// The "repair" kept the noise: inaccurate tuple.
				repr.Set(tp.ID, 1, relation.S("BAD2"))
			}
		}
	}
	var rows [][]cfd.Cell
	for _, z := range zips {
		rows = append(rows, []cfd.Cell{cfd.C(z), cfd.C(cities[z])})
	}
	φ := cfd.MustNew("zipct", s, []string{"zip"}, []string{"CT"}, rows...)
	sigma = φ.Normalize()
	return dopt, d, repr, sigma
}

func TestOracleInspect(t *testing.T) {
	dopt, _, _, _ := scenario(t, 10, 0, 0)
	bad := dopt.Clone()
	id := bad.Tuples()[3].ID
	bad.Set(id, 1, relation.S("WRONG"))
	o := &Oracle{Opt: dopt}
	flagged := o.Inspect(bad.Tuples())
	if len(flagged) != 1 || flagged[0] != id {
		t.Errorf("Inspect = %v, want [%d]", flagged, id)
	}
	// Correct returns the clean version.
	fixedTuple, ok := o.Correct(id)
	if !ok || !relation.StrictEqVals(fixedTuple.Vals, dopt.Tuple(id).Vals) {
		t.Error("Correct must return the Dopt tuple")
	}
	if _, ok := o.Correct(99999); ok {
		t.Error("Correct of unknown id must fail")
	}
}

func TestEvaluateAcceptsPerfectRepair(t *testing.T) {
	dopt, d, _, sigma := scenario(t, 2000, 0.05, 0) // repair fixed everything
	rep, err := Evaluate(dopt, d, sigma, &Oracle{Opt: dopt}, Options{Eps: 0.05, Delta: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Errorf("perfect repair must be accepted: p̂=%v z=%v zα=%v", rep.PHat, rep.Z, rep.ZAlpha)
	}
	if rep.PHat != 0 {
		t.Errorf("p̂ = %v, want 0", rep.PHat)
	}
	if len(rep.Inaccurate) != 0 {
		t.Errorf("no tuple should be flagged, got %d", len(rep.Inaccurate))
	}
}

func TestEvaluateRejectsBadRepair(t *testing.T) {
	dopt, d, repr, sigma := scenario(t, 2000, 0.3, 0.9) // most noise kept
	rep, err := Evaluate(repr, d, sigma, &Oracle{Opt: dopt}, Options{Eps: 0.05, Delta: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Errorf("bad repair must be rejected: p̂=%v z=%v", rep.PHat, rep.Z)
	}
	if rep.PHat == 0 {
		t.Error("p̂ must be positive for a bad repair")
	}
	if len(rep.Inaccurate) == 0 {
		t.Error("the oracle must flag inaccurate tuples")
	}
}

// TestStratificationTargetsDirtyTuples: dirty tuples (higher vio in the
// original D) are oversampled relative to their population share.
func TestStratificationTargetsDirtyTuples(t *testing.T) {
	dopt, d, repr, sigma := scenario(t, 5000, 0.05, 0.5)
	rep, err := Evaluate(repr, d, sigma, &Oracle{Opt: dopt},
		Options{Eps: 0.05, Delta: 0.95, SampleSize: 300, VioThresholds: []int{1}, Xi: []float64{0.4, 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StratumSizes) != 2 {
		t.Fatalf("strata = %v", rep.StratumSizes)
	}
	cleanSize, dirtySize := rep.StratumSizes[0], rep.StratumSizes[1]
	cleanDrawn, dirtyDrawn := rep.StratumDrawn[0], rep.StratumDrawn[1]
	if dirtySize == 0 || cleanSize == 0 {
		t.Skip("degenerate scenario")
	}
	dirtyRate := float64(dirtyDrawn) / float64(dirtySize)
	cleanRate := float64(cleanDrawn) / float64(cleanSize)
	if dirtyRate <= cleanRate {
		t.Errorf("dirty stratum sampling rate %v must exceed clean %v", dirtyRate, cleanRate)
	}
}

func TestEvaluateOptionValidation(t *testing.T) {
	dopt, d, _, sigma := scenario(t, 100, 0.05, 0)
	o := &Oracle{Opt: dopt}
	bad := []Options{
		{Eps: 0, Delta: 0.9},
		{Eps: 0.05, Delta: 0},
		{Eps: math.NaN(), Delta: 0.9},
		{Eps: 0.05, Delta: math.NaN()},
		{Eps: 0.05, Delta: 0.9, Xi: []float64{1}},                                      // strata mismatch
		{Eps: 0.05, Delta: 0.9, Xi: []float64{0.5, 0.3, 0.2}},                          // not ascending
		{Eps: 0.05, Delta: 0.9, Xi: []float64{0.1, 0.2, 0.2}},                          // sum != 1
		{Eps: 0.05, Delta: 0.9, VioThresholds: []int{3, 1}, Xi: []float64{.2, .3, .5}}, // thresholds unsorted
		{Eps: 0.05, Delta: 0.9, SampleSize: -1},
	}
	for i, opt := range bad {
		if _, err := Evaluate(dopt, d, sigma, o, opt); err == nil {
			t.Errorf("options %d should fail", i)
		}
	}
	empty := relation.New(dopt.Schema())
	if _, err := Evaluate(empty, d, sigma, o, Options{Eps: 0.05, Delta: 0.9}); err == nil {
		t.Error("empty repair must fail")
	}
}

func TestDefaultSampleSizeFromChernoff(t *testing.T) {
	dopt, d, _, sigma := scenario(t, 5000, 0.05, 0)
	rep, err := Evaluate(dopt, d, sigma, &Oracle{Opt: dopt}, Options{Eps: 0.05, Delta: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 6.1 with c=5, ε=0.05, δ=0.95 needs a sample in the hundreds.
	if rep.SampleSize < 100 {
		t.Errorf("derived sample size %d too small", rep.SampleSize)
	}
}

// TestAcceptanceCalibration: across repeated draws on a repair whose true
// inaccuracy is clearly below ε, acceptance should be the norm; on one
// clearly above, rejection should be the norm.
func TestAcceptanceCalibration(t *testing.T) {
	for _, tc := range []struct {
		miss   float64
		expect bool
	}{
		{0.0, true},
		{0.95, false},
	} {
		t.Run(fmt.Sprintf("miss=%v", tc.miss), func(t *testing.T) {
			dopt, d, repr, sigma := scenario(t, 4000, 0.2, tc.miss)
			agree := 0
			for seed := int64(0); seed < 10; seed++ {
				rep, err := Evaluate(repr, d, sigma, &Oracle{Opt: dopt},
					Options{Eps: 0.05, Delta: 0.9, Rng: rand.New(rand.NewSource(seed))})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Accepted == tc.expect {
					agree++
				}
			}
			if agree < 8 {
				t.Errorf("only %d/10 draws agreed with expected accept=%v", agree, tc.expect)
			}
		})
	}
}
