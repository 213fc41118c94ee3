package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cfdclean"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/workload"
)

// patternRows pins the tableau size of Σ in every workload. The default
// (Size/10) makes workload.Generate spin forever past Size 40000 — see
// "known hazards" in README.md — so no workload may leave it unset.
const patternRows = 600

// generateTimeout is the watchdog on dataset generation.
const generateTimeout = 60 * time.Second

// generate builds one dataset under the pinned generator settings and the
// watchdog. On timeout the generator goroutine is abandoned: the caller
// fails the run and the process exits.
func generate(size int, rho float64, seed int64) (*workload.Dataset, error) {
	type out struct {
		ds  *workload.Dataset
		err error
	}
	ch := make(chan out, 1)
	go func() {
		ds, err := workload.Generate(workload.Config{
			Size: size, NoiseRate: rho, ConstShare: 0.5,
			PatternRows: patternRows, Weights: true, Seed: seed,
		})
		ch <- out{ds, err}
	}()
	select {
	case o := <-ch:
		return o.ds, o.err
	case <-time.After(generateTimeout):
		return nil, fmt.Errorf("workload.Generate(size=%d, seed=%d) exceeded the %v watchdog", size, seed, generateTimeout)
	}
}

// subSeed derives the generator seed of dataset i of a round, so that a
// run's datasets are distinct and a function of -seed alone.
func subSeed(seed int64, round, i int) int64 {
	return seed*1_000_000 + int64(round)*1_000 + int64(i)
}

// parseSigma takes Σ the way a user holds it — text — through
// ParseCFDs, Normalize and Satisfiable.
func parseSigma(s *cfdclean.Schema, text []byte) ([]*cfdclean.NormalCFD, error) {
	cfds, err := cfdclean.ParseCFDs(s, bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	sigma := cfdclean.Normalize(cfds)
	if err := cfdclean.Satisfiable(sigma); err != nil {
		return nil, err
	}
	return sigma, nil
}

func formatSigma(ds *workload.Dataset) ([]byte, error) {
	var b bytes.Buffer
	if err := cfdclean.FormatCFDs(&b, ds.CFDs); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// batchInput is one BATCHREPAIR problem as a user would load it: the dirty
// database and its weights from CSV, Σ from text.
type batchInput struct {
	ds    *workload.Dataset
	d     *cfdclean.Relation
	sigma []*cfdclean.NormalCFD
}

func loadBatchInput(size int, rho float64, seed int64) (*batchInput, error) {
	ds, err := generate(size, rho, seed)
	if err != nil {
		return nil, err
	}
	var data, weights bytes.Buffer
	if err := cfdclean.WriteCSV(ds.Dirty, &data); err != nil {
		return nil, err
	}
	if err := relation.WriteWeightsCSV(ds.Dirty, &weights); err != nil {
		return nil, err
	}
	d, err := cfdclean.ReadCSV("order", &data)
	if err != nil {
		return nil, err
	}
	if err := relation.ReadWeightsCSV(d, &weights); err != nil {
		return nil, err
	}
	text, err := formatSigma(ds)
	if err != nil {
		return nil, err
	}
	sigma, err := parseSigma(d.Schema(), text)
	if err != nil {
		return nil, err
	}
	return &batchInput{ds: ds, d: d, sigma: sigma}, nil
}

// opBatch is one Session.ApplyOps call (or one /apply body).
type opBatch struct {
	deletes []relation.TupleID
	sets    []increpair.SetOp
	inserts []*relation.Tuple
}

func (b *opBatch) tuples() int { return len(b.deletes) + len(b.sets) + len(b.inserts) }

// streamShape sizes one streaming round.
type streamShape struct {
	base      int     // clean tuples the session opens over
	batches   int     // ops per round
	batchSize int     // inserts per op
	rho       float64 // share of arriving tuples that are dirty
	window    int     // >0: each op deletes the inserts of the op `window` earlier
	sets      int     // cell updates per op, on base tuples
}

// stream is the input of one streaming round: a clean base as CSV, Σ as
// text, and the op schedule. Arrivals carry id 0; the session numbers them
// base+1, base+2, … in arrival order, which are their ids in ds.Dirty and
// ds.Opt, so ds.Opt.Tuple(id) is the ground truth of any live tuple.
type stream struct {
	ds      *workload.Dataset
	baseCSV []byte
	cfdText []byte
	batches []opBatch
}

// setAttrs are the attributes a churn SetOp may overwrite: every one is
// constrained by Σ, so a copied-in foreign value usually starts a repair.
var setAttrs = []int{
	workload.AttrCT, workload.AttrZip, workload.AttrSTR,
	workload.AttrPR, workload.AttrVAT, workload.AttrST,
}

func buildStream(sh streamShape, seed int64) (*stream, error) {
	ds, err := generate(sh.base+sh.batches*sh.batchSize, sh.rho, seed)
	if err != nil {
		return nil, err
	}
	opt, dirty := ds.Opt.Tuples(), ds.Dirty.Tuples()
	base := cfdclean.NewRelation(ds.Schema)
	for _, t := range opt[:sh.base] {
		if err := base.Insert(t.Clone()); err != nil {
			return nil, err
		}
	}
	var csv bytes.Buffer
	if err := cfdclean.WriteCSV(base, &csv); err != nil {
		return nil, err
	}
	text, err := formatSigma(ds)
	if err != nil {
		return nil, err
	}
	st := &stream{ds: ds, baseCSV: csv.Bytes(), cfdText: text, batches: make([]opBatch, sh.batches)}
	rng := rand.New(rand.NewSource(seed))
	for b := range st.batches {
		ob := &st.batches[b]
		lo := sh.base + b*sh.batchSize
		for _, t := range dirty[lo : lo+sh.batchSize] {
			c := t.Clone()
			c.ID = 0
			ob.inserts = append(ob.inserts, c)
		}
		if sh.window > 0 && b >= sh.window {
			old := sh.base + (b-sh.window)*sh.batchSize
			for i := 0; i < sh.batchSize; i++ {
				ob.deletes = append(ob.deletes, relation.TupleID(old+i+1))
			}
		}
		// Distinct base tuples within one op: a stride walk from a random
		// start never repeats an id while sets <= base.
		at := rng.Intn(sh.base)
		for s := 0; s < sh.sets; s++ {
			at = (at + 1 + sh.base/(sh.sets+1)) % sh.base
			a := setAttrs[rng.Intn(len(setAttrs))]
			donor := opt[rng.Intn(sh.base)]
			ob.sets = append(ob.sets, increpair.SetOp{ID: opt[at].ID, Attr: a, Value: donor.Vals[a]})
		}
	}
	return st, nil
}

// open loads the stream's base and Σ the way a client's server would and
// opens a session over them.
func (st *stream) open(opts *cfdclean.IncOptions) (*cfdclean.Session, error) {
	base, err := cfdclean.ReadCSV("order", bytes.NewReader(st.baseCSV))
	if err != nil {
		return nil, err
	}
	sigma, err := parseSigma(base.Schema(), st.cfdText)
	if err != nil {
		return nil, err
	}
	if !cfdclean.Satisfies(base, sigma) {
		return nil, errors.New("stream base violates Σ")
	}
	return cfdclean.NewSession(base, sigma, opts)
}

// quality pools the cell counts behind precision and recall (§7.1) over
// every repair of a run.
type quality struct{ noises, changes, corrected int }

func (q *quality) add(o quality) {
	q.noises += o.noises
	q.changes += o.changes
	q.corrected += o.corrected
}

// score counts one tuple's cells: orig is what arrived, rep what the
// engine stored, truth the ground truth.
func (q *quality) score(orig, rep, truth []relation.Value) {
	for a := range truth {
		noisy := !relation.StrictEq(orig[a], truth[a])
		if noisy {
			q.noises++
		}
		if !relation.StrictEq(orig[a], rep[a]) {
			q.changes++
			if noisy && relation.StrictEq(rep[a], truth[a]) {
				q.corrected++
			}
		}
	}
}

func (q quality) precisionPct() float64 {
	if q.changes == 0 {
		return 100
	}
	return 100 * float64(q.corrected) / float64(q.changes)
}

func (q quality) recallPct() float64 {
	if q.noises == 0 {
		return 100
	}
	return 100 * float64(q.corrected) / float64(q.noises)
}
