package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// deterministic lists the end-to-end metrics that depend on the inputs
// alone: two runs of one seed must report them identically.
var deterministic = []string{"precision_pct", "recall_pct", "disk_bytes_per_tuple"}

// TestSmoke runs all four workloads at toy sizes, one round each — untraced
// at seed 1 twice, traced at seed 2 once — and holds what they print
// against BENCHMARK.json. That the server's stages fit inside every
// op's round trip is one of the checks a run counts in `failed`.
func TestSmoke(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, tmp: filepath.Join(root, ".bench_build", "tmp"), toy: true}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		t.Fatal(err)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			specs := bf.EndToEnd
			if traced {
				specs = bf.PerLayer
			}
			var prev *result
			seed, runs := int64(1), 2
			if traced {
				// Once: a traced run costs five untraced ones.
				seed, runs = 2, 1
			}
			for range runs {
				res, err := runOne(w, e, seed, 0.1, traced)
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d",
						w.name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(specs))
				}
				for _, spec := range specs {
					m, ok := res.Metrics[spec.Name]
					switch {
					case !ok:
						t.Errorf("%s traced=%v: metric %s of BENCHMARK.json was not printed", w.name, traced, spec.Name)
					case !nameRE.MatchString(spec.Name):
						t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", spec.Name)
					case m.Unit == "" || m.Unit != spec.Unit:
						t.Errorf("%s: unit %q printed, %q in BENCHMARK.json", spec.Name, m.Unit, spec.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s %s: not finite", w.name, spec.Name)
					case !traced && m.Value == 0:
						t.Errorf("%s %s: an end-to-end metric is 0", w.name, spec.Name)
					}
				}
				if prev != nil {
					for _, name := range deterministic {
						if a := prev.Metrics[name]; a != res.Metrics[name] {
							t.Errorf("%s %s: %v then %v on the same seed", w.name, name, a.Value, res.Metrics[name].Value)
						}
					}
				}
				prev = res
			}
		}
	}
}
