package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cfdclean"
	"cfdclean/internal/cfd"
	"cfdclean/internal/cluster/ship"
	"cfdclean/internal/cost"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// The per-layer metrics. Each layer is probed stand-alone through its
// exported functions on the workload's own inputs: the probe stream `in`
// (the workload's round-0 stream, or for batch_clean one built from its
// first database's settings) and, for the batch layers, one dirty database
// of batch_clean's size. Every workload's traced run reports every metric,
// so a layer the workload itself bypasses still gets a measured baseline on
// that workload's data. What a layer's metric should move is tabulated in
// README.md.

// probeWal caps how many of the stream's batches the wal, ship and server
// probes replay.
const probeWal = 16

// reps is how often a stand-alone probe repeats; its median is reported.
func (e *env) reps() int {
	if e.toy {
		return 2
	}
	return 3
}

func medianDur(n int, f func() time.Duration) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = f()
	}
	return quantile(ds, 0.5)
}

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// perLayer reduces a traced run to the per-layer metrics of
// BENCHMARK.json: what the traced rounds counted, then the stand-alone
// probes.
func perLayer(rs *runStats, in *stream, e *env, seed int64, tr *tracer) (metrics, error) {
	m := metrics{}
	rs.tracedRounds(m)
	p := &prober{env: e, seed: seed, in: in, m: m}
	root := tr.begin("probes", -1, -1)
	defer tr.end(root)
	for _, layer := range []struct {
		name string
		run  func() error
	}{
		{"relation", p.relation}, {"cfd", p.cfd}, {"repair", p.repair},
		{"increpair", p.increpair}, {"wal", p.wal}, {"store", p.store},
		{"ship", p.ship},
	} {
		sp := tr.begin("probe."+layer.name, root, -1)
		err := layer.run()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", layer.name, err)
		}
	}
	// The server layer: serve_mixed's own traced rounds when there are
	// any, otherwise a short served replay of the probe stream.
	var served []*roundStats
	for _, r := range rs.traced {
		if r.srv != nil {
			served = append(served, r)
		}
	}
	if len(served) == 0 {
		sp := tr.begin("probe.server", root, -1)
		// The served replay posts the arrivals alone, as serve_mixed does.
		short := *in
		short.batches = nil
		for i := range in.batches[:min(len(in.batches), probeWal)] {
			short.batches = append(short.batches, opBatch{inserts: in.batches[i].inserts})
		}
		r := &roundStats{srv: &serverStats{}}
		err := driveServer(&roundCtx{env: e, tr: tr, span: sp}, r, &short, time.Now(), tr.begin("setup", sp, -1))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("server probe: %w", err)
		}
		rs.probeFailed += r.failed
		served = []*roundStats{r}
	}
	serverMetrics(served, m)
	return m, nil
}

// tracedRounds reports what the workload's own traced rounds counted,
// and the cost of tracing them.
func (rs *runStats) tracedRounds(m metrics) {
	var calls int64
	var busy time.Duration
	var repairCost float64
	var changes int
	var ops []time.Duration
	var tps, tpsTraced, slow []float64
	for _, r := range rs.traced {
		a := r.atRef()
		calls += r.strdistCalls
		busy += r.strdistBusy
		repairCost += r.repairCost
		changes += r.q.changes
		tpsTraced = append(tpsTraced, a.tuplesPerSec)
		slow = append(slow, a.slowdown)
	}
	for _, r := range rs.rounds {
		a := r.atRef()
		ops = append(ops, a.ops...)
		tps = append(tps, a.tuplesPerSec)
		slow = append(slow, a.slowdown)
	}
	n := float64(len(rs.traced))
	m.set("strdist.calls", float64(calls)/n, "count")
	m.set("strdist.busy_ms", ms(busy)/n, "ms")
	m.set("cost.repair_cost", repairCost/n, "count")
	m.set("cost.changes", float64(changes)/n, "count")
	// The workload's own ops, at reference speed like op_ms_p50. Tails do
	// not repeat within a tenth on this box: reported, never gated.
	m.set("op_ms_p95", ms(quantile(ops, 0.95)), "ms")
	m.set("op_samples", float64(len(ops)), "count")
	m.set("trace.overhead_pct", 100*(1-median(tpsTraced)/median(tps)), "%")
	// How far the box was from reference speed during the rounds; the
	// probes' timings below are raw.
	m.set("ref.slowdown", median(slow), "ratio")
}

// prober runs the stand-alone layer probes.
type prober struct {
	env  *env
	seed int64
	in   *stream
	m    metrics

	// Filled by earlier probes for later ones.
	base  *relation.Relation
	sigma []*cfd.Normal
	snap  *wal.Snapshot // the session snapshot the increpair probe took
}

// probeArrivals caps how many of the stream's inserts the relation, cfd
// and increpair probes replay: a delete under a subscribed store costs
// milliseconds once the relation holds thousands of violations.
const probeArrivals = 1000

// arrivals returns clones of the stream's first inserts under the ids the
// session would give them.
func (p *prober) arrivals() []*relation.Tuple {
	var out []*relation.Tuple
	id := relation.TupleID(p.base.Size())
	for i := range p.in.batches {
		for _, t := range p.in.batches[i].inserts {
			if len(out) == probeArrivals {
				return out
			}
			id++
			c := t.Clone()
			c.ID = id
			out = append(out, c)
		}
	}
	return out
}

func (p *prober) relation() error {
	n := p.env.reps()
	var err error
	p.m.set("relation.readcsv_ms", ms(medianDur(n, func() time.Duration {
		return timeIt(func() { p.base, err = cfdclean.ReadCSV("order", bytes.NewReader(p.in.baseCSV)) })
	})), "ms")
	if err != nil {
		return err
	}
	if p.sigma, err = parseSigma(p.base.Schema(), p.in.cfdText); err != nil {
		return err
	}
	p.m.set("relation.clone_ms", ms(medianDur(n, func() time.Duration {
		return timeIt(func() { p.base.Clone() })
	})), "ms")
	p.m.set("relation.writecsv_ms", ms(medianDur(n, func() time.Duration {
		return timeIt(func() { err = cfdclean.WriteCSV(p.base, io.Discard) })
	})), "ms")
	if err != nil {
		return err
	}
	var arrived int
	d := medianDur(n, func() time.Duration {
		r, ts := p.base.Clone(), p.arrivals()
		arrived = len(ts)
		return timeIt(func() {
			for _, t := range ts {
				if e := r.Insert(t); e != nil {
					err = e
				}
			}
		})
	})
	p.m.set("relation.insert_us_per_tuple", us(d)/float64(arrived), "us")
	return err
}

// replay inserts the arrivals into a clone of the base, overwrites one
// cell of each with the next arrival's value, and deletes them again —
// with or without a violation store subscribed to the relation's journal.
// It returns the time of each of the three phases.
func (p *prober) replay(withStore bool) (ins, set, del time.Duration, err error) {
	r, ts := p.base.Clone(), p.arrivals()
	if withStore {
		vs := cfd.NewVioStore(r, p.sigma)
		defer vs.Close()
	}
	ins = timeIt(func() {
		for _, t := range ts {
			if e := r.Insert(t); e != nil {
				err = e
			}
		}
	})
	set = timeIt(func() {
		for i, t := range ts {
			a := setAttrs[i%len(setAttrs)]
			if _, e := r.Set(t.ID, a, ts[(i+1)%len(ts)].Vals[a]); e != nil {
				err = e
			}
		}
	})
	del = timeIt(func() {
		for _, t := range ts {
			r.Delete(t.ID)
		}
	})
	return ins, set, del, err
}

func (p *prober) cfd() error {
	n := p.env.reps()
	ds := p.in.ds
	var vios []cfdclean.Violation
	p.m.set("cfd.detect_ms", ms(medianDur(n, func() time.Duration {
		return timeIt(func() { vios = cfdclean.Detect(ds.Dirty, ds.Sigma, 0) })
	})), "ms")
	p.m.set("cfd.violations", float64(len(vios)), "count")
	var comps int
	p.m.set("cfd.viostore_build_ms", ms(medianDur(n, func() time.Duration {
		var vs *cfd.VioStore
		d := timeIt(func() { vs = cfd.NewVioStore(ds.Dirty, ds.Sigma) })
		comps = len(vs.Components())
		vs.Close()
		return d
	})), "ms")
	p.m.set("cfd.components", float64(comps), "count")

	// Store maintenance per mutation = replay with the store subscribed
	// minus the same replay without it.
	muts := float64(len(p.arrivals()))
	var with, without [3][]time.Duration
	for i := 0; i < n; i++ {
		for _, run := range []struct {
			store bool
			into  *[3][]time.Duration
		}{{false, &without}, {true, &with}} {
			ins, set, del, err := p.replay(run.store)
			if err != nil {
				return err
			}
			run.into[0] = append(run.into[0], ins)
			run.into[1] = append(run.into[1], set)
			run.into[2] = append(run.into[2], del)
		}
	}
	for k, name := range []string{"cfd.viostore_insert_us", "cfd.viostore_set_us", "cfd.viostore_delete_us"} {
		p.m.set(name, us(quantile(with[k], 0.5)-quantile(without[k], 0.5))/muts, "us")
	}
	return nil
}

func (p *prober) repair() error {
	n := p.env.reps()
	sz := p.env.sizes()
	in, err := loadBatchInput(sz.batchN, sz.batchRho, subSeed(p.seed, 0, 0))
	if err != nil {
		return err
	}
	batch := func(opts *cfdclean.BatchOptions) time.Duration {
		return medianDur(n, func() time.Duration {
			return timeIt(func() {
				if _, e := cfdclean.BatchRepair(in.d, in.sigma, opts); e != nil {
					err = e
				}
			})
		})
	}
	whole := batch(nil)
	p.m.set("repair.batch_ms", ms(whole), "ms")
	p.m.set("repair.workers1_ms", ms(batch(&cfdclean.BatchOptions{Workers: 1})), "ms")
	if err != nil {
		return err
	}
	p.m.set("repair.alloc_mb_per_op", float64(allocated(func() {
		_, err = cfdclean.BatchRepair(in.d, in.sigma, nil)
	}))/(1<<20), "MB")
	if err != nil {
		return err
	}
	// Self time: the whole op less what the layers below it take on the
	// same database, each measured stand-alone.
	detect := medianDur(n, func() time.Duration {
		return timeIt(func() { cfdclean.Detect(in.d, in.sigma, 0) })
	})
	build := medianDur(n, func() time.Duration {
		var vs *cfd.VioStore
		d := timeIt(func() { vs = cfd.NewVioStore(in.d, in.sigma) })
		vs.Close()
		return d
	})
	cm := &countingMetric{}
	if _, err := cfdclean.BatchRepair(in.d, in.sigma, &cfdclean.BatchOptions{CostModel: cost.New(cm)}); err != nil {
		return err
	}
	p.m.set("repair.self_ms", ms(whole-detect-build-cm.busy()), "ms")
	return nil
}

func (p *prober) increpair() error {
	n := p.env.reps()
	ds := p.in.ds
	// All-clean and all-dirty probe batches: the ground-truth versions of
	// the first arrivals, and the dirty versions of perturbed tuples.
	var clean, dirty []*relation.Tuple
	arrivals := p.arrivals()
	for _, t := range arrivals[:min(200, len(arrivals))] {
		c := ds.Opt.Tuple(t.ID).Clone()
		c.ID = 0
		clean = append(clean, c)
	}
	for _, id := range ds.DirtyIDs[:min(40, len(ds.DirtyIDs))] {
		c := ds.Dirty.Tuple(id).Clone()
		c.ID = 0
		dirty = append(dirty, c)
	}
	if len(dirty) == 0 {
		return errors.New("probe dataset has no dirty tuple")
	}
	var open, cleanT, dirtyT, delT, snapT, restoreT []time.Duration
	var allocs uint64
	for i := 0; i < n; i++ {
		var sess *cfdclean.Session
		var err error
		open = append(open, timeIt(func() { sess, err = cfdclean.NewSession(p.base, p.sigma, nil) }))
		if err != nil {
			return err
		}
		fresh := func(ts []*relation.Tuple) []*relation.Tuple {
			out := make([]*relation.Tuple, len(ts))
			for i, t := range ts {
				out[i] = t.Clone()
			}
			return out
		}
		var res *cfdclean.IncResult
		cs := fresh(clean)
		allocs = allocated(func() {
			cleanT = append(cleanT, timeIt(func() { res, err = sess.ApplyDelta(cs) }))
		})
		if err != nil {
			return err
		}
		ids := make([]relation.TupleID, len(res.Inserted))
		for i, t := range res.Inserted {
			ids[i] = t.ID
		}
		dd := fresh(dirty)
		dirtyT = append(dirtyT, timeIt(func() { _, err = sess.ApplyDelta(dd) }))
		if err != nil {
			return err
		}
		delT = append(delT, timeIt(func() { _, _, err = sess.ApplyOps(ids, nil, nil) }))
		if err != nil {
			return err
		}
		snapT = append(snapT, timeIt(func() { p.snap, err = sess.PersistSnapshot(sessionName) }))
		if err != nil {
			return err
		}
		var back *cfdclean.Session
		restoreT = append(restoreT, timeIt(func() { back, err = increpair.RestoreFromSnapshot(p.snap, 0) }))
		sess.Close()
		if err != nil {
			return err
		}
		back.Close()
	}
	p.m.set("increpair.open_ms", ms(quantile(open, 0.5)), "ms")
	p.m.set("increpair.clean_tuple_us", us(quantile(cleanT, 0.5))/float64(len(clean)), "us")
	p.m.set("increpair.dirty_tuple_ms", ms(quantile(dirtyT, 0.5))/float64(len(dirty)), "ms")
	p.m.set("increpair.delete_us", us(quantile(delT, 0.5))/float64(len(clean)), "us")
	p.m.set("increpair.alloc_kb_per_tuple", float64(allocs)/1024/float64(len(clean)), "kB")
	p.m.set("increpair.snapshot_ms", ms(quantile(snapT, 0.5)), "ms")
	p.m.set("increpair.restore_ms", ms(quantile(restoreT, 0.5)), "ms")
	return nil
}

// walBatches renders the first probeWal batches of the stream as WAL
// records, numbered as a session starting at version 0 would.
func (p *prober) walBatches() (bs []*wal.Batch, tuples int) {
	for i := range p.in.batches[:min(len(p.in.batches), probeWal)] {
		b := &p.in.batches[i]
		bs = append(bs, &wal.Batch{
			PrevVersion: uint64(i), Version: uint64(i + 1),
			Ops: increpair.OpsToDeltas(b.deletes, b.sets, b.inserts),
		})
		tuples += b.tuples()
	}
	return bs, tuples
}

func (p *prober) wal() error {
	dir, err := os.MkdirTemp(p.env.tmp, "wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Create(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	bs, tuples := p.walBatches()
	var enc, app, syn []time.Duration
	var bytes int
	for _, b := range bs {
		var payload []byte
		enc = append(enc, timeIt(func() { payload = b.Encode() }))
		bytes += len(payload)
		app = append(app, timeIt(func() { err = log.Append(payload) }))
		if err != nil {
			return err
		}
		syn = append(syn, timeIt(func() { err = log.Sync() }))
		if err != nil {
			return err
		}
	}
	p.m.set("wal.encode_us", us(quantile(enc, 0.5)), "us")
	p.m.set("wal.append_us", us(quantile(app, 0.5)), "us")
	p.m.set("wal.sync_ms", ms(quantile(syn, 0.5)), "ms")
	p.m.set("wal.bytes_per_tuple", float64(bytes)/float64(tuples), "B")
	p.m.set("wal.snapshot_write_ms", ms(medianDur(p.env.reps(), func() time.Duration {
		return timeIt(func() { err = wal.WriteSnapshotFile(filepath.Join(dir, "probe.snap"), p.snap) })
	})), "ms")
	return err
}

func (p *prober) store() error {
	dir, err := os.MkdirTemp(p.env.tmp, "store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sess, err := cfdclean.NewSession(p.base, p.sigma, nil)
	if err != nil {
		return err
	}
	defer sess.Close()
	st, err := store.Create(dir, p.base.Schema().Arity(), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := sess.AttachStore(st, true); err != nil {
		return err
	}
	// Each flush commits the pages the batches since the last one dirtied,
	// which is what a snapshot rotation does.
	var flushes []time.Duration
	per := max(1, min(len(p.in.batches), probeWal)/p.env.reps())
	for i := range p.in.batches[:min(len(p.in.batches), probeWal)] {
		if _, err := sess.ApplyDelta(p.in.batches[i].inserts); err != nil {
			return err
		}
		if (i+1)%per != 0 {
			continue
		}
		gen := uint64(len(flushes) + 1)
		flushes = append(flushes, timeIt(func() {
			var fl *store.Flush
			if _, fl, err = sess.PersistBoundary(sessionName); err == nil {
				err = fl.Commit(gen)
			}
		}))
		if err != nil {
			return err
		}
	}
	p.m.set("store.flush_ms", ms(quantile(flushes, 0.5)), "ms")
	stats := st.Stats()
	p.m.set("store.bytes_per_tuple", float64(stats.DiskBytes)/float64(stats.Tuples), "B")
	rows := 0
	scan := medianDur(p.env.reps(), func() time.Duration {
		return timeIt(func() {
			var it *store.Iterator
			if it, err = st.Source(); err != nil {
				return
			}
			defer it.Close()
			for rows = 0; ; rows++ {
				_, ok, e := it.Next()
				if e != nil || !ok {
					err = e
					return
				}
			}
		})
	})
	if err != nil {
		return err
	}
	p.m.set("store.scan_rows_per_s", float64(rows)/scan.Seconds(), "1/s")
	// Stats exposes no hit counter; the share of committed pages a scan
	// leaves in the clean-page cache is the nearest thing it has.
	stats = st.Stats()
	p.m.set("store.cached_page_ratio", float64(stats.CachedPages)/float64(stats.Pages), "ratio")
	return nil
}

func (p *prober) ship() error {
	primary, err := cfdclean.NewSession(p.base, p.sigma, nil)
	if err != nil {
		return err
	}
	defer primary.Close()
	follower := ship.NewLocalTransport(0)
	defer follower.Close()
	snap, err := primary.PersistSnapshot(sessionName)
	if err != nil {
		return err
	}
	install := medianDur(p.env.reps(), func() time.Duration {
		return timeIt(func() {
			if e := follower.ShipSnapshot(sessionName, snap); e != nil {
				err = e
			}
		})
	})
	if err != nil {
		return err
	}
	p.m.set("ship.snapshot_install_ms", ms(install), "ms")
	var enc, apply []time.Duration
	for i := range p.in.batches[:min(len(p.in.batches), probeWal)] {
		b := &p.in.batches[i]
		prev := primary.Snapshot().Version
		if _, _, err := primary.ApplyOps(b.deletes, b.sets, b.inserts); err != nil {
			return err
		}
		wb := &wal.Batch{PrevVersion: prev, Version: primary.Snapshot().Version, Ops: increpair.OpsToDeltas(b.deletes, b.sets, b.inserts)}
		enc = append(enc, timeIt(func() { ship.EncodeBatchFrame(wb) }))
		apply = append(apply, timeIt(func() { err = follower.ShipBatch(sessionName, wb) }))
		if err != nil {
			return err
		}
	}
	if got, want := follower.Replica(sessionName).Version(), primary.Snapshot().Version; got != want {
		return fmt.Errorf("follower at version %d, primary at %d", got, want)
	}
	p.m.set("ship.frame_encode_us", us(quantile(enc, 0.5)), "us")
	p.m.set("ship.follower_apply_ms", ms(quantile(apply, 0.5)), "ms")
	return nil
}

// serverMetrics reports the server layer from served rounds.
func serverMetrics(rounds []*roundStats, m metrics) {
	var queue, engine, persist, codec, pages, create, recover []time.Duration
	fails, limited := 0, 0
	for _, r := range rounds {
		for _, s := range r.stages {
			queue = append(queue, s.queue)
			engine = append(engine, s.engine)
			persist = append(persist, s.persist)
			codec = append(codec, s.rtt-s.queue-s.engine-s.persist)
		}
		pages = append(pages, r.srv.pages...)
		create = append(create, r.srv.create)
		recover = append(recover, r.srv.recoverT)
		fails += r.srv.httpFail
		limited += r.srv.rateLimited
	}
	for _, s := range []struct {
		name string
		ds   []time.Duration
	}{
		{"server.queue_ms_p50", queue}, {"server.engine_ms_p50", engine},
		{"server.persist_ms_p50", persist}, {"server.codec_ms_p50", codec},
	} {
		m.set(s.name, ms(quantile(s.ds, 0.5)), "ms")
	}
	m.set("server.create_ms", ms(quantile(create, 0.5)), "ms")
	m.set("server.page_ms_p50", ms(quantile(pages, 0.5)), "ms")
	m.set("server.recover_ms", ms(quantile(recover, 0.5)), "ms")
	m.set("server.http_fail", float64(fails), "count")
	m.set("server.rate_limited", float64(limited), "count")
}
