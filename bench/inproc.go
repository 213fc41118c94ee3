package main

import (
	"time"

	"cfdclean"
)

// sizes fixes every workload's shape. They were chosen on a 2-core box so
// that one round's timed part lasts two to four seconds; see README.md.
type sizes struct {
	batchN, batchK int // batch_clean: tuples per database, databases per round
	batchRho       float64
	stream         streamShape
	churn          streamShape
	serve          streamShape
	// readOuts is how often a streaming round reads its cleaned relation
	// out once its op schedule has ended. The read-outs stay out of the
	// schedule so that inc_stream and inc_churn remain pure write streams.
	// (Spreading them between the ops instead repeated no better:
	// README.md, "Noise".)
	readOuts int
}

func (e *env) sizes() sizes {
	if e.toy {
		return sizes{
			batchN: 200, batchK: 2, batchRho: 0.05,
			stream:   streamShape{base: 300, batches: 4, batchSize: 25, rho: 0.05},
			churn:    streamShape{base: 300, batches: 6, batchSize: 25, rho: 0.05, window: 2, sets: 3},
			serve:    streamShape{base: 300, batches: 6, batchSize: 40, rho: 0.02},
			readOuts: 2,
		}
	}
	return sizes{
		batchN: 500, batchK: 100, batchRho: 0.05,
		stream:   streamShape{base: 5000, batches: 60, batchSize: 100, rho: 0.05},
		churn:    streamShape{base: 5000, batches: 60, batchSize: 50, rho: 0.01, window: 20, sets: 5},
		serve:    streamShape{base: 5000, batches: 128, batchSize: 100, rho: 0.01},
		readOuts: 16,
	}
}

// batchRound is one round of batch_clean: batchK independent dirty
// databases, each loaded the way a user would and repaired by one
// BatchRepair call (the op). Many small databases rather than one large
// one because the driver changes -seed on every run: repair time and
// precision of a single database vary by a factor of two with the seed,
// and only a run that pools hundreds of them repeats.
func batchRound(c *roundCtx) (*roundStats, error) {
	sz := c.env.sizes()
	st := &roundStats{}
	for i := 0; i < sz.batchK; i++ {
		// Set-up and op alternate, one database at a time, so that peak
		// RSS is BatchRepair's working set and not the harness's stock of
		// inputs; the round's set-up time is the sum.
		sp := c.tr.begin("setup", c.span, i)
		t := time.Now()
		in, err := loadBatchInput(sz.batchN, sz.batchRho, subSeed(c.seed, c.round, i))
		st.setup(time.Since(t))
		c.tr.end(sp)
		if err != nil {
			return nil, err
		}
		// A fresh model per op, as the engine default is: the memo must
		// not carry over between databases.
		var opts *cfdclean.BatchOptions
		model, cm := c.model()
		if model != nil {
			opts = &cfdclean.BatchOptions{CostModel: model}
		}
		sp = c.tr.begin("repair.Batch", c.span, i)
		t = time.Now()
		res, err := cfdclean.BatchRepair(in.d, in.sigma, opts)
		d := time.Since(t)
		c.tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.op(d, in.d.Size())
		st.refSample()
		st.repairCost += res.Cost
		if cm != nil {
			st.strdistCalls += cm.calls.Load()
			st.strdistBusy += cm.busy()
		}
		st.check(cfdclean.Satisfies(res.Repair, in.sigma), "batch_clean: repair of database %d violates Σ", i)
		q, err := cfdclean.EvaluateQuality(in.d, res.Repair, in.ds.Opt)
		if err != nil {
			return nil, err
		}
		st.q.add(quality{q.Noises, q.Changes, q.Corrected})

		var cw countingWriter
		sp = c.tr.begin("relation.WriteCSV", c.span, i)
		t = time.Now()
		err = cfdclean.WriteCSV(res.Repair, &cw)
		st.dump(time.Since(t), res.Repair.Size())
		c.tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.bytes += cw.n
		st.stored += res.Repair.Size()
	}
	return st, nil
}

// streamRound is one round of inc_stream or inc_churn: a fresh session
// over the clean base, then the op schedule through ApplyOps, one op per
// batch, then the read-outs.
func streamRound(c *roundCtx, sh streamShape) (*roundStats, error) {
	st := &roundStats{}
	model, cm := c.model()
	// The slowdown around the set-up: these calls before it, the first
	// ops' after it.
	for i := 0; i < refWindow/2; i++ {
		st.refSample()
	}
	sp := c.tr.begin("setup", c.span, -1)
	t0 := time.Now()
	in, err := buildStream(sh, subSeed(c.seed, c.round, 0))
	if err != nil {
		return nil, err
	}
	sess, err := in.open(&cfdclean.IncOptions{CostModel: model})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	st.setup(time.Since(t0))
	c.tr.end(sp)

	for i := range in.batches {
		b := &in.batches[i]
		sp := c.tr.begin("increpair.ApplyOps", c.span, i)
		t := time.Now()
		res, _, err := sess.ApplyOps(b.deletes, b.sets, b.inserts)
		d := time.Since(t)
		c.tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.op(d, b.tuples())
		st.refSample()
		st.check(sess.Satisfied(), "session violates Σ after op %d", i)
		st.repairCost += res.Cost
		for j, rep := range res.Inserted {
			st.q.score(res.Originals[j].Vals, rep.Vals, in.ds.Opt.Tuple(rep.ID).Vals)
		}
	}
	for i := 0; i < c.env.sizes().readOuts; i++ {
		var cw countingWriter
		sp := c.tr.begin("increpair.Dump", c.span, -1)
		t := time.Now()
		err := sess.Dump(&cw)
		st.dump(time.Since(t), sess.Snapshot().Size)
		c.tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.refSample()
	}
	if cm != nil {
		st.strdistCalls, st.strdistBusy = cm.calls.Load(), cm.busy()
	}
	var cw countingWriter
	if err := sess.Persist("bench", &cw); err != nil {
		return nil, err
	}
	st.bytes, st.stored = cw.n, sess.Snapshot().Size
	return st, nil
}

// probeFromShape builds the layer probes' input from a workload's own
// round-0 stream.
func probeFromShape(shape func(sizes) streamShape) func(*env, int64) (*stream, error) {
	return func(e *env, seed int64) (*stream, error) {
		return buildStream(shape(e.sizes()), subSeed(seed, 0, 0))
	}
}
