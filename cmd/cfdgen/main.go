// Command cfdgen generates the synthetic order workload of the paper's
// evaluation (§7.1): a clean database consistent with a set Σ of seven
// CFDs, a dirty copy with controlled noise, per-cell weights, and the
// constraint file.
//
// Usage:
//
//	cfdgen -out DIR [-size N] [-noise R] [-const R] [-patterns N] [-seed N]
//
// The output directory receives:
//
//	clean.csv    the correct database Dopt
//	dirty.csv    the noisy database D
//	weights.csv  per-cell confidence weights for D: dirty.csv's header,
//	             then one row per tuple of dirty.csv, in its order
//	cfds.txt     Σ in the text format cfdclean parses
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cfdclean"
	"cfdclean/internal/relation"
	"cfdclean/workload"
)

func main() {
	out := flag.String("out", "", "output directory (required)")
	size := flag.Int("size", 10000, "number of tuples")
	noise := flag.Float64("noise", 0.05, "noise rate rho in [0,1]")
	constShare := flag.Float64("const", 0.5, "share of dirty tuples violating constant CFDs")
	patterns := flag.Int("patterns", 0, "approximate pattern rows across tableaus (0 = scale with size)")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cfdgen: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "cfdgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*out, *size, *noise, *constShare, *patterns, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "cfdgen: %v\n", err)
		os.Exit(1)
	}
}

func run(dir string, size int, noise, constShare float64, patterns int, seed int64) error {
	ds, err := workload.Generate(workload.Config{
		Size:        size,
		NoiseRate:   noise,
		ConstShare:  constShare,
		PatternRows: patterns,
		Seed:        seed,
		Weights:     true,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, f func(*os.File) error) error {
		file, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := f(file); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}
	if err := write("clean.csv", func(f *os.File) error {
		return cfdclean.WriteCSV(ds.Opt, f)
	}); err != nil {
		return err
	}
	if err := write("dirty.csv", func(f *os.File) error {
		return cfdclean.WriteCSV(ds.Dirty, f)
	}); err != nil {
		return err
	}
	if err := write("weights.csv", func(f *os.File) error {
		return relation.WriteWeightsCSV(ds.Dirty, f)
	}); err != nil {
		return err
	}
	if err := write("cfds.txt", func(f *os.File) error {
		return cfdclean.FormatCFDs(f, ds.CFDs)
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %d tuples (%d dirty, %d noisy cells), %d pattern rows to %s\n",
		size, len(ds.DirtyIDs), ds.NoisyCells, ds.PatternRows, dir)
	return nil
}
