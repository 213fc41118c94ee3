package gen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
	"cfdclean/internal/strdist"
)

func mustNew(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	ds, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return ds
}

func TestCleanDataSatisfiesSigma(t *testing.T) {
	ds := mustNew(t, Config{Size: 500, NoiseRate: 0, Seed: 1})
	if !cfd.Satisfies(ds.Opt, ds.Sigma) {
		t.Fatal("Dopt violates Σ")
	}
	if ds.NoisyCells != 0 || len(ds.DirtyIDs) != 0 {
		t.Fatalf("noise injected at ρ=0: cells=%d dirty=%d", ds.NoisyCells, len(ds.DirtyIDs))
	}
	if !cfd.Satisfies(ds.Dirty, ds.Sigma) {
		t.Fatal("D violates Σ at ρ=0")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Size: 200, NoiseRate: 0.05, Seed: 7, Weights: true}
	a := mustNew(t, cfg)
	b := mustNew(t, cfg)
	if a.Dirty.Size() != b.Dirty.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Dirty.Size(), b.Dirty.Size())
	}
	for _, ta := range a.Dirty.Tuples() {
		tb := b.Dirty.Tuple(ta.ID)
		if !relation.StrictEqVals(ta.Vals, tb.Vals) {
			t.Fatalf("tuple %d differs between runs", ta.ID)
		}
		for i := range ta.Vals {
			if ta.Weight(i) != tb.Weight(i) {
				t.Fatalf("weight (%d,%d) differs", ta.ID, i)
			}
		}
	}
}

func TestNoiseRateRealized(t *testing.T) {
	ds := mustNew(t, Config{Size: 1000, NoiseRate: 0.05, Seed: 3})
	want := 50
	got := len(ds.DirtyIDs)
	if got < want-5 || got > want {
		t.Fatalf("dirty tuples = %d, want ≈ %d", got, want)
	}
	if ds.NoisyCells < got {
		t.Fatalf("noisy cells %d < dirty tuples %d", ds.NoisyCells, got)
	}
}

func TestDirtyTuplesViolate(t *testing.T) {
	ds := mustNew(t, Config{Size: 800, NoiseRate: 0.08, Seed: 5})
	det := cfd.NewVioStore(ds.Dirty, ds.Sigma)
	defer det.Close()
	if det.Satisfied() {
		t.Fatal("dirty database satisfies Σ")
	}
	vio := det.VioAll()
	violating := 0
	for _, id := range ds.DirtyIDs {
		if vio[id] > 0 {
			violating++
		}
	}
	// Constant-CFD perturbations are guaranteed violations; variable ones
	// can occasionally be masked when the partner was itself perturbed.
	if frac := float64(violating) / float64(len(ds.DirtyIDs)); frac < 0.9 {
		t.Fatalf("only %.0f%% of dirty tuples violate Σ", frac*100)
	}
}

func TestConstShareExtremes(t *testing.T) {
	// With ConstShare=1 every dirty tuple violates a constant rule; the
	// number of single-tuple violations must dominate.
	ds := mustNew(t, Config{Size: 500, NoiseRate: 0.1, ConstShare: 1, Seed: 11})
	det := cfd.NewVioStore(ds.Dirty, ds.Sigma)
	defer det.Close()
	vio := det.VioAll()
	n := 0
	for _, id := range ds.DirtyIDs {
		if vio[id] > 0 {
			n++
		}
	}
	if n != len(ds.DirtyIDs) {
		t.Fatalf("const-share=1: %d of %d dirty tuples violate", n, len(ds.DirtyIDs))
	}
}

func TestWeightsProtocol(t *testing.T) {
	ds := mustNew(t, Config{Size: 300, NoiseRate: 0.1, Seed: 13, Weights: true})
	for _, tp := range ds.Dirty.Tuples() {
		want := ds.Opt.Tuple(tp.ID)
		for i := range tp.Vals {
			w := tp.Weight(i)
			if relation.StrictEq(tp.Vals[i], want.Vals[i]) {
				if w < 0.5 || w > 1 {
					t.Fatalf("clean cell (%d,%d) weight %v outside [0.5,1]", tp.ID, i, w)
				}
			} else if w < 0 || w > 0.6 {
				t.Fatalf("dirty cell (%d,%d) weight %v outside [0,0.6]", tp.ID, i, w)
			}
		}
	}
}

func TestUnweightedDefaults(t *testing.T) {
	ds := mustNew(t, Config{Size: 100, NoiseRate: 0.1, Seed: 17})
	for _, tp := range ds.Dirty.Tuples() {
		for i := range tp.Vals {
			if tp.Weight(i) != 1 {
				t.Fatalf("weight (%d,%d) = %v, want 1", tp.ID, i, tp.Weight(i))
			}
		}
	}
}

func TestPatternRowsScale(t *testing.T) {
	small := mustNew(t, Config{Size: 100, Seed: 19, PatternRows: 300})
	big := mustNew(t, Config{Size: 100, Seed: 19, PatternRows: 3000})
	if small.PatternRows < 150 || small.PatternRows > 900 {
		t.Fatalf("small tableau = %d rows, want around 300", small.PatternRows)
	}
	if big.PatternRows <= 2*small.PatternRows {
		t.Fatalf("big tableau %d not much larger than small %d", big.PatternRows, small.PatternRows)
	}
}

func TestEmbeddedFDs(t *testing.T) {
	ds := mustNew(t, Config{Size: 200, NoiseRate: 0.05, Seed: 23})
	fds := ds.EmbeddedFDs()
	for _, n := range fds {
		if n.ConstantRHS() {
			t.Fatalf("embedded FD %s has constant RHS", n)
		}
	}
	// Dopt satisfies the embedded FDs too (they are weaker than Σ).
	if !cfd.Satisfies(ds.Opt, fds) {
		t.Fatal("Dopt violates the embedded FDs")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Size: 0},
		{Size: 10, NoiseRate: -0.1},
		{Size: 10, NoiseRate: 1.5},
		{Size: 10, ConstShare: 2},
		{Size: 10, WeightA: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("New(%+v) accepted invalid config", cfg)
		}
	}
}

// TestConfigRejectsNaN: each rate and weight bound is checked so that NaN
// fails it; a NaN noise rate used to generate data with no noise at all.
func TestConfigRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, cfg := range []Config{
		{Size: 10, NoiseRate: nan},
		{Size: 10, ConstShare: nan},
		{Size: 10, Weights: true, WeightA: nan},
		{Size: 10, Weights: true, WeightB: nan},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted a NaN", cfg)
		}
	}
}

func TestTypoDistanceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inputs := []string{"Philadelphia", "19014", "8983490", "Walnut St", "US", "a"}
	for i := 0; i < 500; i++ {
		s := inputs[i%len(inputs)]
		v := typo(rng, s)
		if d := strdist.DamerauLevenshtein(s, v); d > 6+2 {
			// Transpositions of repeated characters can compound; allow
			// slight slack but catch runaway edits.
			t.Fatalf("typo(%q) = %q at distance %d", s, v, d)
		}
	}
}

func TestTypoChangesStringProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(s string) bool {
		if s == "" || len(s) > 40 {
			return true
		}
		// At least one of a few tries must differ from the input.
		for i := 0; i < 4; i++ {
			if typo(rng, s) != s {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := buildGeo(rng, deriveDims(600))
	for z, ci := range g.zipCity {
		found := false
		for _, zz := range g.cities[ci].zips {
			if zz == z {
				found = true
			}
		}
		if !found {
			t.Fatalf("zip %s not in its city's pool", z)
		}
	}
	for a, ci := range g.acCity {
		found := false
		for _, aa := range g.cities[ci].acs {
			if aa == a {
				found = true
			}
		}
		if !found {
			t.Fatalf("area code %s not in its city's pool", a)
		}
	}
	// Every city owns at least one zip and one area code, or customers
	// could not be placed there.
	for _, c := range g.cities {
		if len(c.zips) == 0 || len(c.acs) == 0 || len(c.streets) == 0 {
			t.Fatalf("city %s lacks zips/acs/streets", c.name)
		}
	}
}

func TestCustomersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := buildGeo(rng, deriveDims(400))
	for _, cu := range buildCustomers(rng, g, 200) {
		ci, ok := g.acCity[cu.ac]
		if !ok {
			t.Fatalf("customer area code %s unknown", cu.ac)
		}
		c := g.cities[ci]
		if cu.ct != c.name || cu.st != c.state {
			t.Fatalf("customer city %s/%s mismatches area code city %s/%s",
				cu.ct, cu.st, c.name, c.state)
		}
		if g.zipCity[cu.zip] != ci {
			t.Fatalf("customer zip %s not in city %s", cu.zip, c.name)
		}
	}
}

// TestLargeSizeTerminates: with the default tableau scaling a Size of
// 40050 or more asks the geography for over 800 area codes, more than the
// [2-9]dd format has; buildGeo used to redraw forever. The pool sizes are
// clamped to what the formats can produce.
func TestLargeSizeTerminates(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{Size: 50000, NoiseRate: 0.01, Seed: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("gen.New(Size=50000) did not return within 60s")
	}
	if d := deriveDims(1 << 30); d.nACs != maxACs || d.nZips != maxZips {
		t.Errorf("deriveDims(huge) = %+v, want the pools clamped to %d area codes and %d zips", d, maxACs, maxZips)
	}
}
