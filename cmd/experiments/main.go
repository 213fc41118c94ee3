// Command experiments regenerates the paper's evaluation figures
// (Figs. 8–15 of "Improving Data Quality: Consistency and Accuracy",
// VLDB 2007) on synthetic workloads.
//
// Usage:
//
//	experiments [-fig N] [-size N] [-seed N] [-quick] [-tsv]
//
// Without -fig, every figure runs in order. -size sets the base database
// size (the paper uses 60000; the default 10000 reproduces the shapes in
// minutes). -quick thins the parameter sweeps for smoke runs. -tsv emits
// tab-separated values for plotting instead of aligned text.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cfdclean/internal/experiments"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (8-15); 0 means all")
	size := flag.Int("size", 10000, "base database size (paper: 60000)")
	seed := flag.Int64("seed", 1, "workload seed")
	quick := flag.Bool("quick", false, "thin parameter sweeps for a smoke run")
	tsv := flag.Bool("tsv", false, "emit tab-separated values")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{Size: *size, Seed: *seed, Quick: *quick}

	var figs []int
	if *fig != 0 {
		if _, ok := experiments.All[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "experiments: no figure %d (want 8-15)\n", *fig)
			os.Exit(2)
		}
		figs = []int{*fig}
	} else {
		for f := range experiments.All {
			figs = append(figs, f)
		}
		sort.Ints(figs)
	}

	for _, f := range figs {
		t0 := time.Now()
		table, err := experiments.All[f](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %d: %v\n", f, err)
			os.Exit(1)
		}
		if *tsv {
			table.TSV(os.Stdout)
		} else {
			table.Print(os.Stdout)
			fmt.Printf("  (completed in %.1fs)\n\n", time.Since(t0).Seconds())
		}
	}
}
