// Command cfdclean detects and repairs CFD violations in a CSV dataset.
//
// Usage:
//
//	cfdclean -data dirty.csv -cfds cfds.txt [-mode batch|inc] [-o repaired.csv]
//	         [-detect] [-truth clean.csv] [-ordering linear|vio|weight] [-k N]
//	         [-workers N]
//
// With -detect the tool only reports violations. Otherwise it computes a
// repair with BATCHREPAIR (mode batch, the default) or INCREPAIR's §5.3
// driver (mode inc) and writes it to -o (default: stdout). With -truth
// pointing at the ground-truth CSV, it also reports precision and recall.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cfdclean"
)

func main() {
	data := flag.String("data", "", "input CSV (required)")
	cfds := flag.String("cfds", "", "CFD file (required)")
	mode := flag.String("mode", "batch", "repair engine: batch or inc")
	out := flag.String("o", "", "output CSV (default stdout)")
	detect := flag.Bool("detect", false, "only report violations, do not repair")
	truth := flag.String("truth", "", "ground-truth CSV for quality reporting")
	ordering := flag.String("ordering", "vio", "inc mode tuple order: linear, vio, or weight")
	k := flag.Int("k", 2, "inc mode attribute-subset size")
	limit := flag.Int("limit", 20, "max violations to print with -detect (0 = all)")
	workers := flag.Int("workers", 0, "parallelism of -detect's whole-database violation scan (0 = all cores, 1 = sequential; output identical at every setting); the repair modes run on one goroutine and ignore it")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cfdclean: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *data == "" || *cfds == "" {
		fmt.Fprintln(os.Stderr, "cfdclean: -data and -cfds are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*data, *cfds, *mode, *out, *truth, *ordering, *detect, *k, *limit, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "cfdclean: %v\n", err)
		os.Exit(1)
	}
}

func run(dataPath, cfdPath, mode, outPath, truthPath, ordering string, detect bool, k, limit, workers int) error {
	f, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	rel, err := cfdclean.ReadCSV("data", f)
	f.Close()
	if err != nil {
		return err
	}

	cf, err := os.Open(cfdPath)
	if err != nil {
		return err
	}
	parsed, err := cfdclean.ParseCFDs(rel.Schema(), cf)
	cf.Close()
	if err != nil {
		return err
	}
	sigma := cfdclean.Normalize(parsed)
	if err := cfdclean.Satisfiable(sigma); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %d tuples, %d CFDs (%d normal rules)\n",
		rel.Size(), len(parsed), len(sigma))

	if detect {
		return report(os.Stdout, rel, sigma, limit, workers)
	}

	repaired, changes, cost, err := repairWith(rel, sigma, mode, ordering, k, workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "repair: %d cells changed, cost %.2f\n", changes, cost)

	if truthPath != "" {
		tf, err := os.Open(truthPath)
		if err != nil {
			return err
		}
		dopt, err := cfdclean.ReadCSV("truth", tf)
		tf.Close()
		if err != nil {
			return err
		}
		q, err := cfdclean.EvaluateQuality(rel, repaired, dopt)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "quality: %v\n", q)
	}

	var w io.Writer = os.Stdout
	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	return cfdclean.WriteCSV(repaired, w)
}

func report(w io.Writer, rel *cfdclean.Relation, sigma []*cfdclean.NormalCFD, limit, workers int) error {
	// One detection pass serves both the listing and the per-tuple
	// counts; -workers bounds its parallelism.
	all := cfdclean.Detect(rel, sigma, workers)
	violating := make(map[cfdclean.TupleID]bool, len(all))
	for _, v := range all {
		violating[v.T] = true
	}
	truncated := limit > 0 && len(all) > limit
	vios := all
	if truncated {
		vios = vios[:limit]
	}
	fmt.Fprintf(w, "%d tuples violate Σ\n", len(violating))
	for _, v := range vios {
		if v.With == 0 {
			fmt.Fprintf(w, "  tuple %d violates %s\n", v.T, v.N.Name)
		} else {
			fmt.Fprintf(w, "  tuple %d violates %s with tuple %d\n", v.T, v.N.Name, v.With)
		}
	}
	if truncated {
		fmt.Fprintln(w, "  ... (truncated; raise -limit)")
	}
	return nil
}

func repairWith(rel *cfdclean.Relation, sigma []*cfdclean.NormalCFD, mode, ordering string, k, workers int) (*cfdclean.Relation, int, float64, error) {
	switch mode {
	case "batch":
		// The greedy loop runs on one goroutine, one component at a
		// time; -workers changes nothing here.
		res, err := cfdclean.BatchRepair(rel, sigma, &cfdclean.BatchOptions{Workers: workers})
		if err != nil {
			return nil, 0, 0, err
		}
		fmt.Fprintf(os.Stderr, "batch: components %d (largest %d tuples), resolutions %d\n",
			res.Components, res.LargestComponent, res.Resolutions)
		return res.Repair, res.Changes, res.Cost, nil
	case "inc":
		var ord cfdclean.Ordering
		switch ordering {
		case "linear":
			ord = cfdclean.OrderLinear
		case "vio":
			ord = cfdclean.OrderByViolations
		case "weight":
			ord = cfdclean.OrderByWeight
		default:
			return nil, 0, 0, fmt.Errorf("unknown ordering %q", ordering)
		}
		res, err := cfdclean.Repair(rel, sigma, &cfdclean.IncOptions{Ordering: ord, K: k, Workers: workers})
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Repair, res.Changes, res.Cost, nil
	default:
		return nil, 0, 0, fmt.Errorf("unknown mode %q (want batch or inc)", mode)
	}
}
