// Command cfddiscover mines CFDs from a CSV dataset (the paper's §9
// future work) and writes them in the text format cmd/cfdclean consumes —
// so a clean reference extract can bootstrap the constraints used to
// clean subsequent feeds.
//
// Usage:
//
//	cfddiscover -data clean.csv [-o cfds.txt] [-maxlhs N] [-support N]
//	            [-confidence R] [-attrs a,b,c]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cfdclean"
)

func main() {
	data := flag.String("data", "", "input CSV (required)")
	out := flag.String("o", "", "output CFD file (default stdout)")
	maxLHS := flag.Int("maxlhs", 2, "maximum LHS size")
	support := flag.Int("support", 4, "minimum tuples backing a constant pattern row")
	confidence := flag.Float64("confidence", 1, "minimum in-group agreement (1 = unanimous)")
	attrs := flag.String("attrs", "", "comma-separated attributes to mine over (default all)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cfddiscover: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *data == "" {
		fmt.Fprintln(os.Stderr, "cfddiscover: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*data, *out, *maxLHS, *support, *confidence, *attrs); err != nil {
		fmt.Fprintf(os.Stderr, "cfddiscover: %v\n", err)
		os.Exit(1)
	}
}

func run(dataPath, outPath string, maxLHS, support int, confidence float64, attrCSV string) error {
	f, err := os.Open(dataPath)
	if err != nil {
		return err
	}
	rel, err := cfdclean.ReadCSV("data", f)
	f.Close()
	if err != nil {
		return err
	}

	opts := &cfdclean.DiscoveryOptions{
		MaxLHS:        maxLHS,
		MinSupport:    support,
		MinConfidence: confidence,
	}
	if attrCSV != "" {
		for _, name := range strings.Split(attrCSV, ",") {
			i, err := rel.Schema().Index(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Attrs = append(opts.Attrs, i)
		}
	}

	rules, err := cfdclean.Discover(rel, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mined %d rules from %d tuples\n", len(rules), rel.Size())
	for _, r := range rules {
		tag := "exact"
		if !r.Exact {
			tag = "approx"
		}
		fmt.Fprintf(os.Stderr, "  %-40s support=%-6d rows=%-5d %s\n",
			r.CFD.Name, r.Support, len(r.CFD.Tableau), tag)
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
	var cfds []*cfdclean.CFD
	for _, r := range rules {
		cfds = append(cfds, r.CFD)
	}
	return cfdclean.FormatCFDs(w, cfds)
}
