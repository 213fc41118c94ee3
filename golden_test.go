package cfdclean_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cfdclean"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden expected outputs")

// TestGoldenCorpus runs the end-to-end pipeline — load CSV, parse CFDs,
// detect, batch-repair, serialize — over the committed fixture datasets
// and diffs the result against the expected repaired output. The corpus
// pins concrete repair decisions (which cells change and to what), not
// just the satisfaction invariant: an engine change that silently alters
// repairs fails here with a readable diff. Regenerate with
//
//	go test -run TestGoldenCorpus -update .
//
// after verifying the new outputs are improvements.
func TestGoldenCorpus(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "golden", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no golden fixtures found")
	}
	for _, dir := range dirs {
		dir := dir
		if _, err := os.Stat(filepath.Join(dir, "dirty.csv")); err != nil {
			// Not a repair fixture: wal-session (the recorded WAL golden
			// log) lives here too and has its own replay test in
			// internal/wal/golden_test.go.
			continue
		}
		t.Run(filepath.Base(dir), func(t *testing.T) {
			df, err := os.Open(filepath.Join(dir, "dirty.csv"))
			if err != nil {
				t.Fatal(err)
			}
			defer df.Close()
			rel, err := cfdclean.ReadCSV("data", df)
			if err != nil {
				t.Fatal(err)
			}
			cf, err := os.Open(filepath.Join(dir, "cfds.txt"))
			if err != nil {
				t.Fatal(err)
			}
			defer cf.Close()
			parsed, err := cfdclean.ParseCFDs(rel.Schema(), cf)
			if err != nil {
				t.Fatal(err)
			}
			sigma := cfdclean.Normalize(parsed)

			if cfdclean.Satisfies(rel, sigma) {
				t.Fatal("fixture is already clean; it exercises nothing")
			}
			res, err := cfdclean.BatchRepair(rel, sigma, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !cfdclean.Satisfies(res.Repair, sigma) {
				t.Fatal("repair does not satisfy sigma")
			}
			var got bytes.Buffer
			if err := cfdclean.WriteCSV(res.Repair, &got); err != nil {
				t.Fatal(err)
			}

			expPath := filepath.Join(dir, "expected.csv")
			if *updateGolden {
				if err := os.WriteFile(expPath, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s (%d cells changed, cost %.3f)", expPath, res.Changes, res.Cost)
				return
			}
			want, err := os.ReadFile(expPath)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("repaired output diverged from golden.\n--- got:\n%s--- want:\n%s", got.String(), want)
			}
		})
	}
}
