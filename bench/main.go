// Command bench is the repository's one benchmark: four workloads, the
// end-to-end metrics of BENCHMARK.json from an untraced run and the
// per-layer metrics from a traced one. See README.md.
//
//	go run -C bench . -workload inc_stream [-seed N] [-seconds S] [-trace 1]
//	go run -C bench . -all [-sets 2 -runs 10]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// workloads lists the benchmark's workloads; names and reasons are those
// of BENCHMARK.json (the smoke test keeps the two in step).
var workloads = []*workloadDef{
	{
		name:         "batch_clean",
		why:          "BatchRepair over many small dirty databases: detection, eqclass, cost/strdist and repair do all the work; increpair, wal, store and server do none",
		round:        batchRound,
		roundSeconds: 3.0,
		probe: func(e *env, seed int64) (*stream, error) {
			sz := e.sizes()
			n := sz.batchN
			return buildStream(streamShape{base: n / 2, batches: 10, batchSize: n / 20, rho: sz.batchRho}, subSeed(seed, 0, 0))
		},
	},
	{
		name:         "inc_stream",
		why:          "insert-only Session.ApplyDelta batches, clean and dirty arrivals mixed: TUPLERESOLVE and VioStore delta maintenance dominate, repair does nothing",
		round:        func(c *roundCtx) (*roundStats, error) { return streamRound(c, c.env.sizes().stream) },
		roundSeconds: 2.4,
		probe:        probeFromShape(func(s sizes) streamShape { return s.stream }),
	},
	{
		name:         "inc_churn",
		why:          "sliding-window Session.ApplyOps with deletes and cell updates: the journal-removal, union-find-rebuild and domain-cache-invalidation paths inserts never touch",
		round:        func(c *roundCtx) (*roundStats, error) { return streamRound(c, c.env.sizes().churn) },
		roundSeconds: 2.4,
		probe:        probeFromShape(func(s sizes) streamShape { return s.churn }),
	},
	{
		name:         "serve_mixed",
		why:          "cfdserved child over loopback HTTP, a writer posting mostly-clean batches beside a dump/page reader: codec, queue, WAL, fsync, snapshot rotation, store flush and the read plane dominate",
		round:        serveRound,
		roundSeconds: 3.0,
		probe: probeFromShape(func(s sizes) streamShape {
			sh := s.serve
			sh.batches = min(sh.batches, probeWal)
			return sh
		}),
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: batch_clean, inc_stream, inc_churn or serve_mixed")
	seed := flag.Int64("seed", 1, "every input is generated from this")
	seconds := flag.Float64("seconds", 12, "timed work to schedule: rounds = seconds / the workload's nominal round time")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics, bench/out/<workload>.trace.json)")
	all := flag.Bool("all", false, "run every workload, untraced then traced, each in its own process")
	sets := flag.Int("sets", 0, "with -all: run this many untraced sets and compare their medians against the bounds")
	runs := flag.Int("runs", 10, "with -sets: runs per workload per set, seeds 1..runs")
	root := flag.String("root", "", "checkout root (default: found from the working directory)")
	flag.Parse()

	// The box has two cores; more would only add scheduler noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	e := &env{}
	var err error
	if e.root, err = findRoot(*root); err != nil {
		return err
	}
	e.tmp = filepath.Join(e.root, ".bench_build", "tmp")
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return err
	}
	if *all {
		return runAll(e, *seed, *seconds, *sets, *runs)
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	res, err := runOne(w, e, *seed, *seconds, *trace != 0)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runOne measures one workload in this process.
func runOne(w *workloadDef, e *env, seed int64, seconds float64, traced bool) (*result, error) {
	info := environment(e, seed)
	for _, k := range envKeys {
		fmt.Printf("# %s=%v\n", k, info[k])
	}
	if traced || w.name == "serve_mixed" {
		if err := buildServed(e); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rs, err := measure(w, e, seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if traced {
		in, err := w.probe(e, seed)
		if err != nil {
			return nil, err
		}
		if res.Metrics, err = perLayer(rs, in, e, seed, tr); err != nil {
			return nil, err
		}
		path := filepath.Join(e.root, "bench", "out", w.name+".trace.json")
		if err := tr.write(path, info); err != nil {
			return nil, err
		}
		fmt.Printf("# %d spans in %s\n", len(tr.spans), path)
	} else {
		res.Metrics = rs.endToEnd()
	}
	res.Attempted, res.Failed = rs.counts()
	res.Correct = res.Failed == 0
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, errors.New("a metric is not finite")
		}
	}
	return res, nil
}

var envKeys = []string{"nproc", "gomaxprocs", "go", "commit", "kernel", "seed"}

// environment describes the box and the run; it is printed before every
// result and written into every trace file.
func environment(e *env, seed int64) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "kernel": kernel, "seed": seed,
	}
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory whose go.mod declares module cfdclean.
func findRoot(given string) (string, error) {
	dir := given
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module cfdclean\n") {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir || given != "" {
			return "", errors.New("no checkout of module cfdclean at or above the working directory")
		}
		dir = up
	}
}

// buildServed builds the real server binary from the checkout's source,
// once per process.
func buildServed(e *env) error {
	if e.served != "" {
		return nil
	}
	path := filepath.Join(e.root, ".bench_build", "cfdserved")
	cmd := exec.Command("go", "build", "-o", path, "./cmd/cfdserved")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cfdserved: %v\n%s", err, out)
	}
	e.served = path
	return nil
}
