package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	return &f, json.Unmarshal(b, &f)
}

// runChild runs one workload in a process of its own, so that VmHWM is that
// workload's alone, and returns the result it printed last.
func runChild(e *env, name string, seed int64, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-root", e.root, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is no result: %w", name, seed, err)
	}
	return &res, nil
}

// runAll is -all: every workload, untraced then traced, every metric by
// name with its unit; with sets > 0 the repeatability check instead.
func runAll(e *env, seed int64, seconds float64, sets, runs int) error {
	if sets > 0 {
		return runSets(e, seconds, sets, runs)
	}
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runChild(e, w.name, seed, seconds, traced)
			if err != nil {
				return err
			}
			failed += res.Failed
			fmt.Printf("%s trace=%v: %d ops attempted, %d failed\n", w.name, traced, res.Attempted, res.Failed)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("  %-32s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed ops", failed)
	}
	return nil
}

// quartiles are Python's statistics.quantiles(xs, n=4) (exclusive method),
// which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// accuracy lists the end-to-end metrics that are a function of the inputs
// alone: the same seed must give the same value in every set, exactly.
var accuracy = []string{"precision_pct", "recall_pct"}

// runSets runs the untraced benchmark `sets` times over, seeds 1..runs on
// every workload each time, and holds what it sees against BENCHMARK.json:
// each end-to-end metric's spread within a set (interquartile distance over
// median) and the worsening of each later set's median against the first
// set's must stay within the metric's bound, and accuracy must not move at
// all between two runs of one seed.
func runSets(e *env, seconds float64, sets, runs int) error {
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	values := make([]map[string]map[string][]float64, sets)
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[s][w.name] = map[string][]float64{}
			for seed := int64(1); seed <= int64(runs); seed++ {
				res, err := runChild(e, w.name, seed, seconds, false)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d failed ops", w.name, seed, res.Failed)
				}
				for n, v := range res.Metrics {
					values[s][w.name][n] = append(values[s][w.name][n], v.Value)
				}
			}
		}
	}
	info := environment(e, 0)
	for _, k := range envKeys[:len(envKeys)-1] {
		fmt.Printf("# %s=%v\n", k, info[k])
	}
	fmt.Printf("# %d sets x %d runs (seeds 1..%d) x %gs per workload\n", sets, runs, runs, seconds)
	fmt.Printf("%-12s %-22s %-5s", "workload", "metric", "unit")
	for s := 0; s < sets; s++ {
		fmt.Printf(" %13s %7s", "median"+strconv.Itoa(s+1), "spread")
	}
	fmt.Printf(" %8s %6s\n", "worse", "bound")
	var over []string
	for _, w := range workloads {
		for _, name := range accuracy {
			for s := 1; s < sets; s++ {
				for i, v := range values[s][w.name][name] {
					if first := values[0][w.name][name][i]; v != first {
						over = append(over, fmt.Sprintf("%s %s: seed %d gave %v in set 1 and %v in set %d", w.name, name, i+1, first, v, s+1))
					}
				}
			}
		}
		for _, spec := range bf.EndToEnd {
			fmt.Printf("%-12s %-22s %-5s", w.name, spec.Name, spec.Unit)
			var first, worst float64
			for s := 0; s < sets; s++ {
				q1, med, q3 := quartiles(values[s][w.name][spec.Name])
				spread := (q3 - q1) / med
				fmt.Printf(" %13.4f %6.1f%%", med, 100*spread)
				if spread > spec.Bound {
					over = append(over, fmt.Sprintf("%s %s: spread %.1f%% in set %d", w.name, spec.Name, 100*spread, s+1))
				}
				if s == 0 {
					first = med
					continue
				}
				worse := (med - first) / first
				if spec.Better == "higher" {
					worse = -worse
				}
				worst = max(worst, worse)
			}
			fmt.Printf(" %7.1f%% %5.1f%%\n", 100*worst, 100*spec.Bound)
			if worst > spec.Bound {
				over = append(over, fmt.Sprintf("%s %s: a later median is %.1f%% worse than the first", w.name, spec.Name, 100*worst))
			}
		}
	}
	if len(over) > 0 {
		return errors.New("outside the bounds of BENCHMARK.json:\n  " + strings.Join(over, "\n  "))
	}
	return nil
}
