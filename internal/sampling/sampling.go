// Package sampling implements the paper's sampling module (§6): the
// accuracy of an automatically generated repair is estimated by letting a
// (possibly simulated) domain expert inspect a stratified sample, and the
// repair is accepted only when a one-sided z-test supports — at
// confidence δ — that its inaccuracy rate lies below the bound ε.
//
// Tuples are stratified by how dirty they originally were (vio(t), §3.1):
// heavily violating tuples are more likely to have been repaired wrongly,
// so higher strata receive larger sampling coefficients. Samples within a
// stratum are drawn by reservoir sampling in one pass and constant space.
package sampling

import (
	"fmt"
	"math/rand"
	"sort"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
	"cfdclean/internal/stats"
)

// User inspects repaired tuples and flags the ones that fall short of
// expectation (§6). Implementations range from interactive review to the
// oracle used in the paper's own evaluation.
type User interface {
	// Inspect returns the ids of the sample tuples judged inaccurate.
	Inspect(sample []*relation.Tuple) []relation.TupleID
}

// Oracle is the paper's evaluation shortcut (§7.1): with the correct
// database Dopt known, a repaired tuple is inaccurate iff it differs from
// its Dopt counterpart. It also supplies corrections, playing the "user
// edits the sample" role in the framework loop (Fig. 3).
type Oracle struct {
	Opt *relation.Relation
}

// Inspect flags sample tuples differing from Dopt.
func (o *Oracle) Inspect(sample []*relation.Tuple) []relation.TupleID {
	var out []relation.TupleID
	for _, t := range sample {
		want := o.Opt.Tuple(t.ID)
		if want == nil || !relation.StrictEqVals(t.Vals, want.Vals) {
			out = append(out, t.ID)
		}
	}
	return out
}

// Correct returns the Dopt version of the tuple, standing in for a manual
// edit; ok is false when Dopt has no counterpart.
func (o *Oracle) Correct(id relation.TupleID) (*relation.Tuple, bool) {
	t := o.Opt.Tuple(id)
	if t == nil {
		return nil, false
	}
	return t.Clone(), true
}

// Options configures a sampling evaluation.
type Options struct {
	// Eps is the predefined inaccuracy bound ε; Delta the confidence δ.
	Eps, Delta float64
	// SampleSize is the total draw k; 0 derives it from Theorem 6.1 with
	// ExpectBad inaccurate tuples expected in the sample.
	SampleSize int
	// ExpectBad is the constant c of Theorem 6.1 (default 5).
	ExpectBad float64
	// VioThresholds are the ascending stratum boundaries over vio(t):
	// stratum i holds tuples with vio(t) in [threshold[i-1], threshold[i])
	// and the last stratum is open-ended. Default {1, 3} (three strata:
	// clean, lightly violating, heavily violating).
	VioThresholds []int
	// Xi are the per-stratum sampling coefficients ξ_i (ascending, summing
	// to 1; §6). Default {0.2, 0.3, 0.5}.
	Xi []float64
	// Rng drives the reservoirs; nil seeds deterministically.
	Rng *rand.Rand
}

func (o Options) withDefaults() (Options, error) {
	if !(0 < o.Eps && o.Eps < 1) {
		return o, fmt.Errorf("sampling: ε = %v outside (0,1)", o.Eps)
	}
	if !(0 < o.Delta && o.Delta < 1) {
		return o, fmt.Errorf("sampling: δ = %v outside (0,1)", o.Delta)
	}
	if o.ExpectBad <= 0 {
		o.ExpectBad = 5
	}
	if o.SampleSize == 0 {
		k, err := stats.ChernoffSampleSize(o.ExpectBad, o.Eps, o.Delta)
		if err != nil {
			return o, err
		}
		o.SampleSize = k
	}
	if o.SampleSize < 1 {
		return o, fmt.Errorf("sampling: sample size %d must be positive", o.SampleSize)
	}
	if len(o.VioThresholds) == 0 {
		o.VioThresholds = []int{1, 3}
	}
	if len(o.Xi) == 0 {
		o.Xi = []float64{0.2, 0.3, 0.5}
	}
	if len(o.Xi) != len(o.VioThresholds)+1 {
		return o, fmt.Errorf("sampling: %d coefficients for %d strata", len(o.Xi), len(o.VioThresholds)+1)
	}
	var sum float64
	for i, x := range o.Xi {
		if x <= 0 {
			return o, fmt.Errorf("sampling: coefficient ξ[%d] = %v must be positive", i, x)
		}
		if i > 0 && o.Xi[i] < o.Xi[i-1] {
			return o, fmt.Errorf("sampling: coefficients must be ascending (dirtier strata sampled more)")
		}
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		return o, fmt.Errorf("sampling: coefficients sum to %v, want 1", sum)
	}
	if !sort.IntsAreSorted(o.VioThresholds) {
		return o, fmt.Errorf("sampling: vio thresholds must be ascending")
	}
	return o, nil
}

// Report is the outcome of one sampling evaluation.
type Report struct {
	// Accepted is true when z ≤ −z_α: the repair's inaccuracy rate is
	// below ε at confidence δ.
	Accepted bool
	// PHat is the weighted sample inaccuracy rate p̂ (§6).
	PHat float64
	// Z and ZAlpha are the test statistic and critical value.
	Z, ZAlpha float64
	// SampleSize is the number of tuples actually drawn.
	SampleSize int
	// Sample holds the drawn (repaired) tuples.
	Sample []*relation.Tuple
	// Inaccurate lists the sampled tuple ids the user flagged.
	Inaccurate []relation.TupleID
	// StratumSizes and StratumDrawn and StratumBad describe the strata.
	StratumSizes, StratumDrawn, StratumBad []int
}

// Evaluate draws a stratified sample of the repair repr, lets the user
// inspect it, and runs the acceptance test. orig is the pre-repair
// database used to stratify tuples by their original vio(t); sigma the
// constraints.
func Evaluate(repr, orig *relation.Relation, sigma []*cfd.Normal, user User, opts Options) (*Report, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if repr.Size() == 0 {
		return nil, fmt.Errorf("sampling: empty repair")
	}
	rng := o.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(99))
	}
	// Stratify by the original tuples' violation counts.
	vio := cfd.OneShot(orig, sigma, (*cfd.VioStore).VioAll)
	m := len(o.Xi)
	stratumOf := func(id relation.TupleID) int {
		v := vio[id]
		for i, th := range o.VioThresholds {
			if v < th {
				return i
			}
		}
		return m - 1
	}
	reservoirs := make([]*stats.Reservoir[*relation.Tuple], m)
	sizes := make([]int, m)
	for i := range reservoirs {
		quota := int(float64(o.SampleSize)*o.Xi[i] + 0.5)
		if quota < 1 {
			quota = 1
		}
		reservoirs[i] = stats.NewReservoir[*relation.Tuple](quota, rng)
	}
	for _, t := range repr.Tuples() {
		i := stratumOf(t.ID)
		sizes[i]++
		reservoirs[i].Add(t)
	}
	var sample []*relation.Tuple
	drawn := make([]int, m)
	for i, r := range reservoirs {
		drawn[i] = len(r.Items())
		sample = append(sample, r.Items()...)
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("sampling: no tuples drawn")
	}
	inaccurate := user.Inspect(sample)
	// Weighted inaccuracy rate. With s_i = |P_i| / n_i (n_i the actual
	// draw, which equals ξ_i·k except for small strata), Σ e_i·s_i is the
	// unbiased estimate of the total number of inaccurate tuples; divided
	// by N it is the standard stratified estimator of the inaccuracy
	// rate. (§6 prints the denominator as Σ |P_i|·s_i = Σ |P_i|²/n_i,
	// which exceeds N whenever sampling rates differ across strata and
	// would bias p̂ downward — we use the unbiased N.)
	bad := make([]int, m)
	flagged := make(map[relation.TupleID]bool, len(inaccurate))
	for _, id := range inaccurate {
		flagged[id] = true
	}
	for _, t := range sample {
		if flagged[t.ID] {
			bad[stratumOf(t.ID)]++
		}
	}
	var num float64
	for i := 0; i < m; i++ {
		if drawn[i] == 0 {
			continue
		}
		si := float64(sizes[i]) / float64(drawn[i])
		num += float64(bad[i]) * si
	}
	pHat := num / float64(repr.Size())
	if pHat > 1 {
		pHat = 1
	}
	accepted, z, zAlpha, err := stats.AcceptRepair(pHat, o.Eps, o.Delta, len(sample))
	if err != nil {
		return nil, err
	}
	return &Report{
		Accepted:     accepted,
		PHat:         pHat,
		Z:            z,
		ZAlpha:       zAlpha,
		SampleSize:   len(sample),
		Sample:       sample,
		Inaccurate:   inaccurate,
		StratumSizes: sizes,
		StratumDrawn: drawn,
		StratumBad:   bad,
	}, nil
}
