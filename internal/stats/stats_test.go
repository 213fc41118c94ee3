package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
		{1.645, 0.95},
		{3, 0.99865},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("Φ(%v) = %v, want ≈%v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.98) + 0.01 // into (0.01, 0.99)
		x, err := NormalQuantile(p)
		if err != nil {
			return false
		}
		return math.Abs(NormalCDF(x)-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := NormalQuantile(0); err == nil {
		t.Error("quantile at 0 must fail")
	}
	if _, err := NormalQuantile(1); err == nil {
		t.Error("quantile at 1 must fail")
	}
}

func TestCriticalValue(t *testing.T) {
	z, err := CriticalValue(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-1.6449) > 1e-3 {
		t.Errorf("z for δ=0.95 = %v, want ≈1.645", z)
	}
	if _, err := CriticalValue(1.5); err == nil {
		t.Error("δ outside (0,1) must fail")
	}
}

func TestZStatistic(t *testing.T) {
	// p̂ = ε gives z = 0.
	z, err := ZStatistic(0.05, 0.05, 100)
	if err != nil || z != 0 {
		t.Errorf("z(p̂=ε) = %v, %v", z, err)
	}
	// Lower observed inaccuracy gives negative z.
	z, _ = ZStatistic(0.01, 0.05, 400)
	if z >= 0 {
		t.Errorf("z = %v, want negative", z)
	}
	// Known value: (0.02-0.05)/sqrt(0.05*0.95/100) = -0.03/0.02179 ≈ -1.3765.
	z, _ = ZStatistic(0.02, 0.05, 100)
	if math.Abs(z-(-1.3765)) > 1e-3 {
		t.Errorf("z = %v, want ≈-1.3765", z)
	}
	for _, bad := range []struct {
		p, e float64
		k    int
	}{{-0.1, 0.05, 10}, {0.5, 0, 10}, {0.5, 1, 10}, {0.5, 0.5, 0}} {
		if _, err := ZStatistic(bad.p, bad.e, bad.k); err == nil {
			t.Errorf("ZStatistic(%v) should fail", bad)
		}
	}
}

func TestAcceptRepair(t *testing.T) {
	// A clean sample of decent size is accepted at ε=5%, δ=0.95.
	ok, z, za, err := AcceptRepair(0.0, 0.05, 0.95, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("clean sample must be accepted: z=%v zα=%v", z, za)
	}
	// A sample at exactly the bound is not accepted.
	ok, _, _, err = AcceptRepair(0.05, 0.05, 0.95, 200)
	if err != nil || ok {
		t.Error("sample at the bound must not be accepted")
	}
	// A very dirty sample is rejected.
	ok, _, _, _ = AcceptRepair(0.5, 0.05, 0.95, 200)
	if ok {
		t.Error("dirty sample must be rejected")
	}
}

func TestChernoffSampleSize(t *testing.T) {
	k, err := ChernoffSampleSize(5, 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: at ε=5%, expecting ≥5 inaccurate tuples with 95% confidence
	// needs a few hundred samples; the bound must exceed the naive c/ε.
	if k <= 100 {
		t.Errorf("Chernoff size %d suspiciously small", k)
	}
	// Monotonicity: lower ε requires larger samples.
	k2, _ := ChernoffSampleSize(5, 0.01, 0.95)
	if k2 <= k {
		t.Errorf("lower ε must need more samples: %d vs %d", k2, k)
	}
	// Higher confidence requires larger samples.
	k3, _ := ChernoffSampleSize(5, 0.05, 0.99)
	if k3 <= k {
		t.Errorf("higher δ must need more samples: %d vs %d", k3, k)
	}
	for _, bad := range []struct{ c, e, d float64 }{{0, 0.05, 0.9}, {5, 0, 0.9}, {5, 0.05, 1}} {
		if _, err := ChernoffSampleSize(bad.c, bad.e, bad.d); err == nil {
			t.Errorf("ChernoffSampleSize(%v) should fail", bad)
		}
	}
}

// TestChernoffGuarantee verifies the theorem empirically: drawing samples
// of the recommended size, at least c inaccurate items appear with
// frequency ≥ δ (up to simulation noise).
func TestChernoffGuarantee(t *testing.T) {
	const (
		eps   = 0.05
		delta = 0.9
		c     = 3.0
	)
	k, err := ChernoffSampleSize(c, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	trials := 2000
	hits := 0
	for i := 0; i < trials; i++ {
		bad := 0
		for j := 0; j < k; j++ {
			if rng.Float64() < eps {
				bad++
			}
		}
		if float64(bad) >= c {
			hits++
		}
	}
	freq := float64(hits) / float64(trials)
	if freq < delta-0.02 {
		t.Errorf("observed hit rate %v below guaranteed δ=%v (k=%d)", freq, delta, k)
	}
}

// TestNaNRejected: every probability argument is range-checked so that NaN
// fails the check (a check written `x < 0 || x > 1` passes it).
func TestNaNRejected(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"NormalQuantile(p)", func() error { _, err := NormalQuantile(nan); return err }},
		{"CriticalValue(δ)", func() error { _, err := CriticalValue(nan); return err }},
		{"ZStatistic(p̂)", func() error { _, err := ZStatistic(nan, 0.05, 10); return err }},
		{"ZStatistic(ε)", func() error { _, err := ZStatistic(0.05, nan, 10); return err }},
		{"AcceptRepair(δ)", func() error { _, _, _, err := AcceptRepair(0, 0.05, nan, 10); return err }},
		{"ChernoffSampleSize(c)", func() error { _, err := ChernoffSampleSize(nan, 0.05, 0.9); return err }},
		{"ChernoffSampleSize(ε)", func() error { _, err := ChernoffSampleSize(5, nan, 0.9); return err }},
		{"ChernoffSampleSize(δ)", func() error { _, err := ChernoffSampleSize(5, 0.05, nan); return err }},
	} {
		if err := c.call(); err == nil {
			t.Errorf("%s = NaN accepted", c.name)
		}
	}
}

func TestReservoirBasics(t *testing.T) {
	r := NewReservoir[int](3, nil)
	for i := 0; i < 10; i++ {
		r.Add(i)
	}
	if len(r.Items()) != 3 {
		t.Fatalf("reservoir holds %d, want 3", len(r.Items()))
	}
	if r.Seen() != 10 {
		t.Errorf("Seen = %d", r.Seen())
	}
	// Fewer items than capacity: all kept.
	r2 := NewReservoir[string](5, nil)
	r2.Add("a")
	r2.Add("b")
	if len(r2.Items()) != 2 {
		t.Errorf("small stream must keep everything")
	}
}

// TestReservoirUniformity: over many runs, each stream position is
// selected with roughly equal probability.
func TestReservoirUniformity(t *testing.T) {
	const n, k, runs = 20, 5, 20000
	counts := make([]int, n)
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < runs; run++ {
		r := NewReservoir[int](k, rng)
		for i := 0; i < n; i++ {
			r.Add(i)
		}
		for _, it := range r.Items() {
			counts[it]++
		}
	}
	want := float64(runs) * k / n // 5000
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.08 {
			t.Errorf("position %d selected %d times, want ≈%.0f", i, c, want)
		}
	}
}
