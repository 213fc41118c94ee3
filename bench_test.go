package cfdclean_test

// Benchmarks regenerating the paper's evaluation (one per figure, §7.2)
// plus ablations that switch one design choice off at a time. Figure
// benches run a representative point of the figure's sweep at bench
// scale; `go run ./cmd/experiments` regenerates the full sweeps and
// EXPERIMENTS.md records the paper-vs-measured series.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"cfdclean"
	"cfdclean/workload"
)

// benchSize keeps `go test -bench=.` in minutes; cmd/experiments scales
// to the paper's 60k–300k.
const benchSize = 2000

var dsCache = map[string]*workload.Dataset{}

func benchData(b *testing.B, size int, rho, constShare float64) *workload.Dataset {
	b.Helper()
	key := fmt.Sprintf("%d/%v/%v", size, rho, constShare)
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	ds, err := workload.Generate(workload.Config{
		Size: size, NoiseRate: rho, ConstShare: constShare, Seed: 1, Weights: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	dsCache[key] = ds
	return ds
}

func batchOnce(b *testing.B, ds *workload.Dataset, sigma []*cfdclean.NormalCFD) *cfdclean.BatchResult {
	b.Helper()
	res, err := cfdclean.BatchRepair(ds.Dirty, sigma, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func incOnce(b *testing.B, ds *workload.Dataset, ord cfdclean.Ordering) *cfdclean.IncResult {
	b.Helper()
	res, err := cfdclean.Repair(ds.Dirty, ds.Sigma, &cfdclean.IncOptions{Ordering: ord})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func reportQuality(b *testing.B, ds *workload.Dataset, repr *cfdclean.Relation) {
	b.Helper()
	q, err := cfdclean.EvaluateQuality(ds.Dirty, repr, ds.Opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(q.Precision*100, "precision%")
	b.ReportMetric(q.Recall*100, "recall%")
}

// BenchmarkFig08CFDvsFD — Fig. 8: BatchRepair with the full Σ versus its
// embedded FDs; the sub-bench metrics expose the accuracy gap.
func BenchmarkFig08CFDvsFD(b *testing.B) {
	ds := benchData(b, benchSize, 0.05, 0.5)
	b.Run("CFD", func(b *testing.B) {
		var last *cfdclean.BatchResult
		for i := 0; i < b.N; i++ {
			last = batchOnce(b, ds, ds.Sigma)
		}
		reportQuality(b, ds, last.Repair)
	})
	b.Run("FD", func(b *testing.B) {
		var last *cfdclean.BatchResult
		for i := 0; i < b.N; i++ {
			last = batchOnce(b, ds, ds.EmbeddedFDs())
		}
		reportQuality(b, ds, last.Repair)
	})
}

// BenchmarkFig09Fig10Accuracy — Figs. 9/10: precision and recall of all
// four algorithms at ρ = 5%.
func BenchmarkFig09Fig10Accuracy(b *testing.B) {
	ds := benchData(b, benchSize, 0.05, 0.5)
	b.Run("BatchRepair", func(b *testing.B) {
		var last *cfdclean.BatchResult
		for i := 0; i < b.N; i++ {
			last = batchOnce(b, ds, ds.Sigma)
		}
		reportQuality(b, ds, last.Repair)
	})
	for _, ord := range []cfdclean.Ordering{
		cfdclean.OrderByViolations, cfdclean.OrderByWeight, cfdclean.OrderLinear,
	} {
		b.Run(ord.String(), func(b *testing.B) {
			var last *cfdclean.IncResult
			for i := 0; i < b.N; i++ {
				last = incOnce(b, ds, ord)
			}
			reportQuality(b, ds, last.Repair)
		})
	}
}

// BenchmarkFig11BatchScale — Fig. 11: BatchRepair runtime as the database
// grows, ρ = 5%.
func BenchmarkFig11BatchScale(b *testing.B) {
	for _, n := range []int{benchSize, 2 * benchSize, 4 * benchSize} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			ds := benchData(b, n, 0.05, 0.5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batchOnce(b, ds, ds.Sigma)
			}
		})
	}
}

// BenchmarkFig12Incremental — Fig. 12: repairing 10–70 inserted dirty
// tuples incrementally versus recleaning everything with BatchRepair.
func BenchmarkFig12Incremental(b *testing.B) {
	base := benchData(b, benchSize, 0, 0.5)
	pool, err := workload.Generate(workload.Config{
		Size: 100, NoiseRate: 1, Seed: 8, Weights: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 40, 70} {
		var delta []*cfdclean.Tuple
		for i, id := range pool.DirtyIDs {
			if i >= n {
				break
			}
			tp := pool.Dirty.Tuple(id).Clone()
			tp.ID = cfdclean.TupleID(1000000 + i)
			delta = append(delta, tp)
		}
		b.Run(fmt.Sprintf("IncRepair/insert=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfdclean.IncRepair(base.Opt, delta, base.Sigma, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("BatchRepair/insert=%d", n), func(b *testing.B) {
			combined := base.Opt.Clone()
			for _, tp := range delta {
				combined.MustInsert(tp.Clone())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfdclean.BatchRepair(combined, base.Sigma, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13RuntimeVsNoise — Fig. 13: runtime of BatchRepair and
// V-IncRepair as the noise rate grows.
func BenchmarkFig13RuntimeVsNoise(b *testing.B) {
	for _, rho := range []float64{0.01, 0.05, 0.10} {
		ds := benchData(b, benchSize, rho, 0.5)
		b.Run(fmt.Sprintf("BatchRepair/rho=%.0f%%", rho*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batchOnce(b, ds, ds.Sigma)
			}
		})
		b.Run(fmt.Sprintf("V-IncRepair/rho=%.0f%%", rho*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				incOnce(b, ds, cfdclean.OrderByViolations)
			}
		})
	}
}

// BenchmarkFig14ConstantShareAccuracy — Fig. 14: accuracy as the share of
// dirty tuples violating constant CFDs grows.
func BenchmarkFig14ConstantShareAccuracy(b *testing.B) {
	for _, share := range []float64{0.2, 0.5, 0.8} {
		ds := benchData(b, benchSize, 0.05, share)
		b.Run(fmt.Sprintf("BatchRepair/const=%.0f%%", share*100), func(b *testing.B) {
			var last *cfdclean.BatchResult
			for i := 0; i < b.N; i++ {
				last = batchOnce(b, ds, ds.Sigma)
			}
			reportQuality(b, ds, last.Repair)
		})
	}
}

// BenchmarkFig15ConstantShareTime — Fig. 15: runtime against the same
// constant-violation share sweep.
func BenchmarkFig15ConstantShareTime(b *testing.B) {
	for _, share := range []float64{0.2, 0.5, 0.8} {
		ds := benchData(b, benchSize, 0.05, share)
		b.Run(fmt.Sprintf("BatchRepair/const=%.0f%%", share*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batchOnce(b, ds, ds.Sigma)
			}
		})
		b.Run(fmt.Sprintf("V-IncRepair/const=%.0f%%", share*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				incOnce(b, ds, cfdclean.OrderByViolations)
			}
		})
	}
}

// --- Ablations: one design choice on versus off ---

// BenchmarkAblationDepGraph — the §7.2 dependency-graph ordering of
// PICKNEXT on versus off.
func BenchmarkAblationDepGraph(b *testing.B) {
	ds := benchData(b, benchSize, 0.05, 0.5)
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var last *cfdclean.BatchResult
			for i := 0; i < b.N; i++ {
				var err error
				last, err = cfdclean.BatchRepair(ds.Dirty, ds.Sigma,
					&cfdclean.BatchOptions{NoDepGraph: off})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, ds, last.Repair)
		})
	}
}

// BenchmarkAblationSubsetK — TUPLERESOLVE's attribute-subset size k
// (§5.1: "for k = 1, 2 we are already able to obtain good results").
func BenchmarkAblationSubsetK(b *testing.B) {
	ds := benchData(b, benchSize, 0.05, 0.5)
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var last *cfdclean.IncResult
			for i := 0; i < b.N; i++ {
				var err error
				last, err = cfdclean.Repair(ds.Dirty, ds.Sigma, &cfdclean.IncOptions{
					Ordering: cfdclean.OrderByViolations, K: k,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, ds, last.Repair)
		})
	}
}

// BenchmarkAblationWeights — the cost model with the §7.1 weight
// protocol versus all-ones weights (§3.2 remark 1).
func BenchmarkAblationWeights(b *testing.B) {
	for _, weighted := range []bool{true, false} {
		name := "weighted"
		if !weighted {
			name = "unweighted"
		}
		b.Run(name, func(b *testing.B) {
			ds, err := workload.Generate(workload.Config{
				Size: benchSize, NoiseRate: 0.05, Seed: 1, Weights: weighted,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var last *cfdclean.BatchResult
			for i := 0; i < b.N; i++ {
				last = batchOnce(b, ds, ds.Sigma)
			}
			reportQuality(b, ds, last.Repair)
		})
	}
}

// BenchmarkDetect — violation detection throughput (the SQL-based
// detection of [6] that the repairing loop leans on): vio(t) of every
// tuple, and the canonical listing of every violation of a database four
// times as large.
func BenchmarkDetect(b *testing.B) {
	b.Run("vio_counts", func(b *testing.B) {
		ds := benchData(b, benchSize, 0.05, 0.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfdclean.VioCounts(ds.Dirty, ds.Sigma)
		}
	})
	b.Run("listing", func(b *testing.B) {
		ds := benchData(b, 4*benchSize, 0.05, 0.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfdclean.Detect(ds.Dirty, ds.Sigma, 0)
		}
	})
}
