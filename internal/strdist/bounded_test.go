package strdist

import "testing"

// DamerauLevenshteinBounded must agree with the full metric whenever the
// true distance is within the bound, and report max+1 (via any value
// > max) otherwise — including the early exits on byte length, rune
// length and row minima.
func TestDamerauLevenshteinBounded(t *testing.T) {
	cases := []struct{ a, b string }{
		{"", ""},
		{"abc", "abc"},
		{"abc", "acb"}, // transposition
		{"kitten", "sitting"},
		{"walnut", "wallnut"},
		{"short", "a much longer string entirely"},
		{"héllo", "hello"}, // multi-byte runes
		{"ab", "ba"},
		{"abcdef", "ghijkl"},
	}
	for _, c := range cases {
		full := DamerauLevenshtein(c.a, c.b)
		for max := 0; max <= full+2; max++ {
			got := DamerauLevenshteinBounded(c.a, c.b, max)
			if full <= max && got != full {
				t.Errorf("Bounded(%q,%q,%d) = %d, want exact %d", c.a, c.b, max, got, full)
			}
			if full > max && got <= max {
				t.Errorf("Bounded(%q,%q,%d) = %d, must exceed the bound (true %d)", c.a, c.b, max, got, full)
			}
		}
	}
	if got := DamerauLevenshteinBounded("abc", "xyz", -1); got != 0 {
		t.Errorf("negative bound = %d, want 0", got)
	}
}

// The DL metric's DistanceBounded must prune identically.
func TestDistanceBoundedMetric(t *testing.T) {
	bm, ok := DL.(BoundedMetric)
	if !ok {
		t.Fatal("the default DL metric must implement BoundedMetric")
	}
	if got := bm.DistanceBounded("kitten", "sitting", 1); got <= 1 {
		t.Errorf("DL bounded = %d, want > 1", got)
	}
	if got := bm.DistanceBounded("kitten", "sitting", 5); got != 3 {
		t.Errorf("DL bounded = %d, want 3", got)
	}
}
