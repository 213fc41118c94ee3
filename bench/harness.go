package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cfdclean/internal/cost"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// env is what a run needs besides its inputs.
type env struct {
	root   string // checkout root (holds go.mod of module cfdclean)
	tmp    string // scratch space inside the checkout
	served string // path of the built cfdserved binary, "" until needed
	toy    bool   // smoke-test sizes
}

// roundCtx is what one round receives.
type roundCtx struct {
	env   *env
	seed  int64
	round int
	tr    *tracer // nil: untraced
	span  int     // the round's span, parent of the spans the round records
	first bool    // an untraced run's first round: runs the once-per-run checks
}

// model returns the cost model a round's engine calls should use: nil
// (the engine default) untraced, a counting one traced.
func (c *roundCtx) model() (*cost.Model, *countingMetric) {
	if c.tr == nil {
		return nil, nil
	}
	cm := &countingMetric{}
	return cost.New(cm), cm
}

// sample is a timed piece of work and its place in the round: how many
// reference kernel calls (ref.go) the round had made before it, which says
// what the box was doing then.
type sample struct {
	d  time.Duration
	at int
	n  int // tuples an op carried, rows a read-out returned
}

// roundStats is what one round hands back.
type roundStats struct {
	ops    []sample        // every op; their sum is the throughput denominator
	ref    []time.Duration // every reference kernel call, in order
	tuples int             // tuples the ops carried
	setups []sample        // preparation before the timed ops
	dumps  []sample        // every read-out of the cleaned relation
	bytes  int64           // size of the cleaned state as persisted ...
	stored int             // ... and the tuples it holds
	q      quality
	failed int // correctness checks that did not hold
	// childRSS is VmHWM (kB) of the process under test when it is not
	// this one.
	childRSS int

	// Traced rounds only.
	strdistCalls int64
	strdistBusy  time.Duration
	repairCost   float64
	stages       []stageSample // served rounds, traced or not
	srv          *serverStats  // served rounds, traced or not
}

func (r *roundStats) op(d time.Duration, tuples int) {
	r.ops = append(r.ops, sample{d, len(r.ref), tuples})
	r.tuples += tuples
}

func (r *roundStats) setup(d time.Duration) { r.setups = append(r.setups, sample{d, len(r.ref), 0}) }

func (r *roundStats) dump(d time.Duration, rows int) {
	r.dumps = append(r.dumps, sample{d, len(r.ref), rows})
}

// refSample calls the reference kernel once. The caller has made sure the
// system under test is idle.
func (r *roundStats) refSample() { r.ref = append(r.ref, timeIt(refKernel)) }

func (r *roundStats) check(ok bool, what string, args ...any) {
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: CHECK FAILED: "+what+"\n", args...)
	}
}

// refWindow is how many reference kernel calls around a sample make up
// the local slowdown: enough to average the kernel's own jitter, few enough
// (a third of a second) to follow the box's phases.
const refWindow = 8

// slowdown is how much slower than nominal the reference kernel ran
// around its at-th call.
func (r *roundStats) slowdown(at int) float64 {
	lo := max(0, min(at-refWindow/2, len(r.ref)-refWindow))
	hi := min(len(r.ref), lo+refWindow)
	var sum time.Duration
	for _, d := range r.ref[lo:hi] {
		sum += d
	}
	return float64(sum) / float64(hi-lo) / float64(refNominal)
}

// roundAtRef is a round's timings at reference speed: each divided by the
// slowdown around it.
type roundAtRef struct {
	setup        float64         // seconds
	ops          []time.Duration // latencies
	tuplesPerSec float64
	rows         int           // rows the read-outs returned ...
	reading      time.Duration // ... and the time they took
	raw          time.Duration // the ops' wall as measured
	slowdown     float64       // op-time-weighted mean over the round
}

func (r *roundStats) atRef() roundAtRef {
	var a roundAtRef
	for _, s := range r.setups {
		a.setup += s.d.Seconds() / r.slowdown(s.at)
	}
	var raw, scaled time.Duration
	for _, s := range r.ops {
		n := time.Duration(float64(s.d) / r.slowdown(s.at))
		a.ops = append(a.ops, n)
		raw += s.d
		scaled += n
	}
	for _, s := range r.dumps {
		n := time.Duration(float64(s.d) / r.slowdown(s.at))
		a.rows += s.n
		a.reading += n
	}
	a.raw = raw
	a.slowdown = float64(raw) / float64(scaled)
	a.tuplesPerSec = float64(r.tuples) / scaled.Seconds()
	return a
}

// workloadDef is one workload: a name, why it exists, and how to run one
// round of it from a seed.
type workloadDef struct {
	name  string
	why   string
	round func(*roundCtx) (*roundStats, error)
	// roundSeconds is the timed part of one round on the box the sizes
	// were chosen on; -seconds divided by it is the run's round count.
	roundSeconds float64
	// probe builds the inputs the stand-alone layer probes run on.
	probe func(e *env, seed int64) (*stream, error)
}

// minRounds is the fewest rounds a run reports medians over; a traced run
// makes at least tracedPairs untraced-then-traced pairs.
const (
	minRounds   = 3
	tracedPairs = 2
)

// rounds is how many rounds (traced: pairs of rounds) a run of w with a
// budget of `seconds` makes: as many as cover it at the workload's nominal
// round time. A toy run makes one.
func (w *workloadDef) rounds(e *env, seconds float64, traced bool) int {
	switch {
	case e.toy:
		return 1
	case traced:
		// Pairs get half the budget; the stand-alone probes that follow
		// take about the other half.
		return max(tracedPairs, int(math.Ceil(seconds/(4*w.roundSeconds))))
	}
	return max(minRounds, int(math.Ceil(seconds/w.roundSeconds)))
}

// runStats is everything a run measured.
type runStats struct {
	rounds, traced []*roundStats
	probeFailed    int // checks that did not hold inside the layer probes
}

// measure runs w's schedule for a budget of `seconds`. The round count is
// fixed before anything is timed, so a run's inputs — and with them every
// count-like metric — depend on -seed and -seconds alone, never on how fast
// the box or the code under test happens to be. With a tracer, each round
// runs twice on the same inputs, untraced then traced.
func measure(w *workloadDef, e *env, seed int64, seconds float64, tr *tracer) (*runStats, error) {
	if !e.toy {
		// One toy-sized warm-up round on round index -1 pays the lazy
		// set-up (allocator growth, page faults, the server binary's
		// first exec).
		warm := *e
		warm.toy = true
		if _, err := w.round(&roundCtx{env: &warm, seed: seed, round: -1}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rounds := w.rounds(e, seconds, tr != nil)
	rs := &runStats{}
	do := func(c *roundCtx) (*roundStats, error) {
		runtime.GC()
		st, err := w.round(c)
		if err != nil {
			return nil, err
		}
		a := st.atRef()
		fmt.Fprintf(os.Stderr, "bench: round %d raw: %d ops in %.2fs, %.0f tuples/s, %d read-outs; box at %.2fx reference time\n",
			c.round, len(st.ops), a.raw.Seconds(), float64(st.tuples)/a.raw.Seconds(), len(st.dumps), a.slowdown)
		return st, nil
	}
	for r := 0; r < rounds; r++ {
		st, err := do(&roundCtx{env: e, seed: seed, round: r, first: r == 0 && tr == nil})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rs.rounds = append(rs.rounds, st)
		if tr == nil {
			continue
		}
		id := tr.begin("round", -1, -1)
		st, err = do(&roundCtx{env: e, seed: seed, round: r, tr: tr, span: id})
		if err != nil {
			return nil, fmt.Errorf("traced round %d: %w", r, err)
		}
		tr.end(id)
		rs.traced = append(rs.traced, st)
	}
	return rs, nil
}

// endToEnd reduces a run to the end-to-end metrics of BENCHMARK.json. Every
// timing is at reference speed: scaled by its round's reference kernel.
func (rs *runStats) endToEnd() metrics {
	m := metrics{}
	var setups, tps []float64
	var ops []time.Duration
	var dumps int
	var q quality
	var bytes int64
	var stored, childRSS, rows int
	var reading time.Duration
	for _, r := range rs.rounds {
		a := r.atRef()
		setups = append(setups, a.setup)
		tps = append(tps, a.tuplesPerSec)
		rows += a.rows
		reading += a.reading
		ops = append(ops, a.ops...)
		dumps += len(r.dumps)
		q.add(r.q)
		bytes += r.bytes
		stored += r.stored
		childRSS = max(childRSS, r.childRSS)
	}
	m.set("setup_s", median(setups), "s")
	m.set("op_ms_p50", ms(quantile(ops, 0.50)), "ms")
	m.set("tuples_per_s", median(tps), "1/s")
	rss := childRSS
	if rss == 0 {
		rss = peakRSS(os.Getpid())
	}
	m.set("peak_rss_mb", float64(rss)/1024, "MB")
	m.set("precision_pct", q.precisionPct(), "%")
	m.set("recall_pct", q.recallPct(), "%")
	// Read-outs are reported as totals — mean latency, rows over time —
	// and not as medians: the box has a slow state that takes a varying
	// share of a run's read-outs, and a median lands on either side of it
	// (README.md, "Noise").
	m.set("dump_ms_mean", ms(reading)/float64(dumps), "ms")
	m.set("read_rows_per_s", float64(rows)/reading.Seconds(), "1/s")
	m.set("disk_bytes_per_tuple", float64(bytes)/float64(stored), "B")
	return m
}

// attempted counts ops and read-outs; failed counts correctness checks
// that did not hold.
func (rs *runStats) counts() (attempted, failed int) {
	for _, set := range [][]*roundStats{rs.rounds, rs.traced} {
		for _, r := range set {
			attempted += len(r.ops) + len(r.dumps)
			failed += r.failed
		}
	}
	return attempted, failed + rs.probeFailed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeIt runs f and returns how long it took.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// peakRSS reads VmHWM (kB) of a process; 0 when it cannot.
func peakRSS(pid int) int {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")))
			return kb
		}
	}
	return 0
}

// countingWriter measures a stream without keeping it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
