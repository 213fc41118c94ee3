// Package stats provides the statistical machinery of the sampling module
// (§6): the normal approximation to the binomial test statistic, critical
// values at a confidence level, the Chernoff-bound sample-size rule of
// Theorem 6.1, and Vitter's reservoir sampling [33].
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// NormalCDF returns Φ(x), the standard normal cumulative distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// NormalQuantile returns Φ⁻¹(p) for p ∈ (0,1): the x with Φ(x) = p.
// Computed by bisection on the CDF — 80 iterations give ~1e-15 accuracy,
// and the sampling module calls this a handful of times per run.
func NormalQuantile(p float64) (float64, error) {
	if !(0 < p && p < 1) {
		return 0, fmt.Errorf("stats: quantile probability %v outside (0,1)", p)
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if NormalCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// CriticalValue returns z_α for confidence level δ, with α = 1 − δ: the
// value with Φ(z_α) = 1 − α = δ. The one-sided test of §6 rejects the
// null hypothesis ("the inaccuracy rate is above ε") when z ≤ −z_α.
func CriticalValue(delta float64) (float64, error) {
	if !(0 < delta && delta < 1) {
		return 0, fmt.Errorf("stats: confidence level %v outside (0,1)", delta)
	}
	return NormalQuantile(delta)
}

// ZStatistic computes z = (p̂ − ε)/sqrt(ε(1−ε)/k) for inaccuracy rate p̂
// observed in a sample of size k against the bound ε (§6 "Statistical
// Test"). The binomial count of inaccurate tuples is approximated by a
// normal for large enough k.
func ZStatistic(pHat, eps float64, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("stats: sample size %d must be positive", k)
	}
	if !(0 < eps && eps < 1) {
		return 0, fmt.Errorf("stats: bound ε = %v outside (0,1)", eps)
	}
	if !(0 <= pHat && pHat <= 1) {
		return 0, fmt.Errorf("stats: p̂ = %v outside [0,1]", pHat)
	}
	return (pHat - eps) / math.Sqrt(eps*(1-eps)/float64(k)), nil
}

// AcceptRepair runs the one-sided test of §6: it returns true when
// z ≤ −z_α, i.e. when the sample supports — at confidence δ — rejecting
// the hypothesis that the repair's inaccuracy rate exceeds ε.
func AcceptRepair(pHat, eps, delta float64, k int) (accept bool, z, zAlpha float64, err error) {
	z, err = ZStatistic(pHat, eps, k)
	if err != nil {
		return false, 0, 0, err
	}
	zAlpha, err = CriticalValue(delta)
	if err != nil {
		return false, 0, 0, err
	}
	return z <= -zAlpha, z, zAlpha, nil
}

// ChernoffSampleSize returns the smallest k satisfying Theorem 6.1: for a
// sample of size k, the probability that at least c inaccurate tuples
// appear (when the true inaccuracy rate is ε) is at least δ. Intuitively,
// the lower the inaccuracy rate, the larger the sample needed for
// inaccurate tuples to show up at all.
func ChernoffSampleSize(c float64, eps, delta float64) (int, error) {
	if !(0 < eps && eps < 1) {
		return 0, fmt.Errorf("stats: ε = %v outside (0,1)", eps)
	}
	if !(0 < delta && delta < 1) {
		return 0, fmt.Errorf("stats: δ = %v outside (0,1)", delta)
	}
	if !(c > 0) {
		return 0, fmt.Errorf("stats: c = %v must be positive", c)
	}
	ln := math.Log(1 / (1 - delta))
	k := c/eps + ln/eps + math.Sqrt(ln*ln+2*c*ln)/eps
	return int(math.Ceil(k)) + 1, nil // strict inequality in the theorem
}

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of items, using Vitter's algorithm R [33]: one pass, constant
// space.
type Reservoir[T any] struct {
	items []T
	cap   int
	seen  int
	rng   *rand.Rand
}

// NewReservoir creates a reservoir holding up to capacity items, driven
// by the given source (nil seeds from 1 for determinism in tests).
func NewReservoir[T any](capacity int, rng *rand.Rand) *Reservoir[T] {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Reservoir[T]{cap: capacity, rng: rng}
}

// Add offers one stream item to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, item)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.cap {
		r.items[j] = item
	}
}

// Items returns the current sample (shared slice; do not modify).
func (r *Reservoir[T]) Items() []T { return r.items }

// Seen returns how many items have been offered.
func (r *Reservoir[T]) Seen() int { return r.seen }
