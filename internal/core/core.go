// Package core wires the paper's three modules into the data-cleaning
// framework of Fig. 3: the repairing module computes a candidate repair,
// the incremental module handles updates to an already-clean database,
// and the sampling module estimates the repair's accuracy by letting a
// user inspect a stratified sample. When the accuracy test rejects, the
// user's corrections (and, optionally, revisions to Σ) feed the next
// repair round; the loop ends when a repair is accepted or the round
// budget is exhausted.
package core

import (
	"fmt"
	"math/rand"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/repair"
	"cfdclean/internal/sampling"
)

// Mode selects the repairing engine driving the loop.
type Mode int

const (
	// BatchMode repairs with BATCHREPAIR (§4).
	BatchMode Mode = iota
	// IncrementalMode repairs with INCREPAIR in its non-incremental
	// driver (§5.3): the consistent subset of D is kept, the rest is
	// re-inserted tuple by tuple.
	IncrementalMode
)

func (m Mode) String() string {
	switch m {
	case BatchMode:
		return "batch"
	case IncrementalMode:
		return "incremental"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Corrector extends sampling.User with the "user edits the sample data"
// half of the Fig. 3 feedback arrow: for a tuple flagged inaccurate, it
// supplies the intended tuple. sampling.Oracle implements it.
type Corrector interface {
	sampling.User
	// Correct returns the intended version of the flagged tuple; ok is
	// false when the user has no correction to offer.
	Correct(id relation.TupleID) (*relation.Tuple, bool)
}

// Config configures a Cleaner.
type Config struct {
	// Sigma is the (satisfiable) constraint set in normal form.
	Sigma []*cfd.Normal
	// Eps and Delta are the accuracy bound ε and confidence δ of the
	// sampling module.
	Eps, Delta float64
	// Mode selects the repairing engine. Default BatchMode.
	Mode Mode
	// MaxRounds caps repair→sample→feedback iterations. Default 5.
	MaxRounds int
	// BatchOpts / IncOpts tune the respective engines (optional).
	BatchOpts *repair.Options
	IncOpts   *increpair.Options
	// SampleOpts tunes stratification; Eps/Delta fields here are
	// overridden by the Config's. Rng below seeds it when unset.
	SampleOpts sampling.Options
	// ReviseSigma, when non-nil, is invoked after a rejected round with
	// the current Σ and may return a revised set (the ∆Σ arrow of
	// Fig. 3). Returning nil keeps Σ unchanged.
	ReviseSigma func(round int, sigma []*cfd.Normal) []*cfd.Normal
	// Seed drives sampling randomness.
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Sigma) == 0 {
		return c, fmt.Errorf("core: empty constraint set")
	}
	if !(0 < c.Eps && c.Eps < 1) {
		return c, fmt.Errorf("core: ε = %v outside (0,1)", c.Eps)
	}
	if !(0 < c.Delta && c.Delta < 1) {
		return c, fmt.Errorf("core: δ = %v outside (0,1)", c.Delta)
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 5
	}
	return c, nil
}

// Round records one repair→sample iteration.
type Round struct {
	// Report is the sampling module's verdict for this round's repair.
	Report *sampling.Report
	// Corrections counts user edits applied after this round (0 for the
	// accepted final round).
	Corrections int
	// RepairCost and RepairChanges mirror the engine result.
	RepairCost    float64
	RepairChanges int
}

// Outcome is the result of a full cleaning run.
type Outcome struct {
	// Repair is the final candidate repair.
	Repair *relation.Relation
	// Accepted reports whether the sampling module accepted Repair at
	// (ε, δ) within the round budget.
	Accepted bool
	// Rounds holds one entry per iteration, in order.
	Rounds []Round
}

// Cleaner runs the framework loop.
type Cleaner struct {
	cfg Config
}

// New validates the configuration and builds a Cleaner.
func New(cfg Config) (*Cleaner, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if _, err := cfd.Satisfiable(c.Sigma); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Cleaner{cfg: c}, nil
}

// Clean runs repair→sample→feedback rounds on the dirty database d until
// the sampling module accepts the repair or MaxRounds is reached. The
// user inspects each round's sample; if it also implements Corrector,
// flagged tuples are replaced by the user's corrections (pinned with
// weight 1 so later rounds keep them) before the next repair. d itself is
// never modified.
func (c *Cleaner) Clean(d *relation.Relation, user sampling.User) (*Outcome, error) {
	work := d.Clone()
	sigma := c.cfg.Sigma
	out := &Outcome{}
	for round := 0; round < c.cfg.MaxRounds; round++ {
		repr, rcost, rchanges, err := c.repairOnce(work, sigma)
		if err != nil {
			return nil, err
		}
		report, err := c.sampleOnce(repr, work, sigma, user, round)
		if err != nil {
			return nil, err
		}
		r := Round{Report: report, RepairCost: rcost, RepairChanges: rchanges}
		if report.Accepted {
			out.Rounds = append(out.Rounds, r)
			out.Repair = repr
			out.Accepted = true
			return out, nil
		}
		// Rejected: fold user corrections into the working database and
		// let the user revise Σ, then go again.
		if corr, ok := user.(Corrector); ok {
			r.Corrections = applyCorrections(work, corr, report.Inaccurate)
		}
		out.Rounds = append(out.Rounds, r)
		out.Repair = repr
		if c.cfg.ReviseSigma != nil {
			if revised := c.cfg.ReviseSigma(round, sigma); revised != nil {
				if _, err := cfd.Satisfiable(revised); err != nil {
					return nil, fmt.Errorf("core: revised Σ: %w", err)
				}
				sigma = revised
			}
		}
	}
	return out, nil
}

// CleanDelta is the incremental entry point (Fig. 3's ∆D input): given a
// database d known to satisfy Σ and a batch of insertions delta, it
// repairs delta with INCREPAIR and runs the same sample/feedback loop
// over the combined database. Corrections apply to the inserted tuples
// only; d is trusted and never modified.
func (c *Cleaner) CleanDelta(d *relation.Relation, delta []*relation.Tuple, user sampling.User) (*Outcome, error) {
	sigma := c.cfg.Sigma
	out := &Outcome{}
	work := make([]*relation.Tuple, len(delta))
	for i, t := range delta {
		work[i] = t.Clone()
	}
	for round := 0; round < c.cfg.MaxRounds; round++ {
		res, err := increpair.Incremental(d, work, sigma, c.cfg.IncOpts)
		if err != nil {
			return nil, err
		}
		// Stratify against a pre-repair view: d plus the raw delta.
		orig := d.Clone()
		for _, t := range work {
			if orig.Tuple(t.ID) == nil {
				orig.MustInsert(t.Clone())
			}
		}
		report, err := c.sampleOnce(res.Repair, orig, sigma, user, round)
		if err != nil {
			return nil, err
		}
		r := Round{Report: report, RepairCost: res.Cost, RepairChanges: res.Changes}
		if report.Accepted {
			out.Rounds = append(out.Rounds, r)
			out.Repair = res.Repair
			out.Accepted = true
			return out, nil
		}
		if corr, ok := user.(Corrector); ok {
			n := 0
			byID := make(map[relation.TupleID]int, len(work))
			for i, t := range work {
				byID[t.ID] = i
			}
			for _, id := range report.Inaccurate {
				i, mine := byID[id]
				if !mine {
					continue // flagged tuple belongs to the trusted base
				}
				if fixed, ok := corr.Correct(id); ok {
					fixed = fixed.Clone()
					pinWeights(fixed)
					work[i] = fixed
					n++
				}
			}
			r.Corrections = n
		}
		out.Rounds = append(out.Rounds, r)
		out.Repair = res.Repair
	}
	return out, nil
}

func (c *Cleaner) repairOnce(work *relation.Relation, sigma []*cfd.Normal) (*relation.Relation, float64, int, error) {
	switch c.cfg.Mode {
	case IncrementalMode:
		res, err := increpair.Repair(work, sigma, c.cfg.IncOpts)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Repair, res.Cost, res.Changes, nil
	default:
		res, err := repair.Batch(work, sigma, c.cfg.BatchOpts)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Repair, res.Cost, res.Changes, nil
	}
}

func (c *Cleaner) sampleOnce(repr, orig *relation.Relation, sigma []*cfd.Normal, user sampling.User, round int) (*sampling.Report, error) {
	opts := c.cfg.SampleOpts
	opts.Eps = c.cfg.Eps
	opts.Delta = c.cfg.Delta
	if opts.Rng == nil {
		opts.Rng = rand.New(rand.NewSource(c.cfg.Seed + int64(round)))
	}
	return sampling.Evaluate(repr, orig, sigma, user, opts)
}

// applyCorrections replaces flagged tuples in work by the user's
// corrections and pins their weights to 1: the cost model then treats the
// hand-checked values as maximally trustworthy, so the next repair round
// prefers editing other tuples.
func applyCorrections(work *relation.Relation, corr Corrector, flagged []relation.TupleID) int {
	n := 0
	for _, id := range flagged {
		fixed, ok := corr.Correct(id)
		if !ok {
			continue
		}
		cur := work.Tuple(id)
		if cur == nil {
			continue
		}
		for a := range fixed.Vals {
			if _, err := work.Set(id, a, fixed.Vals[a]); err != nil {
				continue
			}
		}
		pinWeights(work.Tuple(id))
		n++
	}
	return n
}

func pinWeights(t *relation.Tuple) {
	for i := range t.Vals {
		t.SetWeight(i, 1)
	}
}
