package cluster

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cfdclean/internal/strdist"
)

// bruteNearest is the reference implementation: full scan, sort by
// (distance, value), keep those within MaxRadius, cut at k.
func bruteNearest(vals []string, q string, k int) []string {
	return bruteNearestBy(strdist.DL, vals, q, k)
}

func bruteNearestBy(m strdist.Metric, vals []string, q string, k int) []string {
	type hit struct {
		v string
		d int
	}
	var hits []hit
	seen := map[string]bool{}
	for _, v := range vals {
		if seen[v] {
			continue
		}
		seen[v] = true
		d := m.Distance(q, v)
		if d <= MaxRadius {
			hits = append(hits, hit{v, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].v < hits[j].v
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.v
	}
	return out
}

func randomWords(rng *rand.Rand, n int) []string {
	words := make([]string, n)
	for i := range words {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6)) // small alphabet → many near-collisions
		}
		words[i] = string(b)
	}
	return words
}

// TestBKTreeMatchesBruteForce checks that the pruned, bounded-metric
// BK-tree search returns exactly the brute-force nearest set.
func TestBKTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		words := randomWords(rng, 80)
		tree := NewBKTree(words, strdist.DL)
		for probe := 0; probe < 10; probe++ {
			q := randomWords(rng, 1)[0]
			k := 1 + rng.Intn(5)
			got := tree.Nearest(q, k)
			want := bruteNearest(words, q, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Nearest(%q,%d) = %v, want %v", trial, q, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Nearest(%q,%d) = %v, want %v", trial, q, k, got, want)
				}
			}
		}
	}
}

// TestBKTreeAddThenQuery: values added after construction are found.
func TestBKTreeAddThenQuery(t *testing.T) {
	tree := NewBKTree([]string{"alpha", "beta"}, strdist.DL)
	tree.Add("alphb")
	got := tree.Nearest("alpha", 2)
	if len(got) == 0 || got[0] != "alpha" || got[1] != "alphb" {
		t.Fatalf("Nearest after Add = %v", got)
	}
}

// TestBoundedDLAgreesWithDL: within the bound the bounded variant is
// exact; beyond it, it reports max+1.
func TestBoundedDLAgreesWithDL(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(a, b string, max8 uint8) bool {
		if len(a) > 24 || len(b) > 24 {
			return true
		}
		max := int(max8 % 12)
		d := strdist.DamerauLevenshtein(a, b)
		got := strdist.DamerauLevenshteinBounded(a, b, max)
		if d <= max {
			return got == d
		}
		return got > max
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
