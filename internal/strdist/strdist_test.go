package strdist

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinBasic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"NYC", "PHI", 3},
		{"19014", "10012", 2},
		{"Walnut", "Walnot", 1},
		{"日本語", "日本", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauLevenshteinBasic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "acb", 1}, // transposition counts once
		{"ca", "abc", 3},  // restricted DL: no substring edited twice
		{"abcd", "acbd", 1},
		{"kitten", "sitting", 3},
		{"PHI", "PIH", 1},
		{"smtih", "smith", 1},
		{"19014", "19041", 1},
	}
	for _, c := range cases {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("DamerauLevenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDLNeverExceedsLevenshtein(t *testing.T) {
	f := func(a, b string) bool {
		return DamerauLevenshtein(a, b) <= Levenshtein(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDLIdentity(t *testing.T) {
	f := func(a string) bool { return DamerauLevenshtein(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDLSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		return DamerauLevenshtein(a, b) == DamerauLevenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinUpperBound(t *testing.T) {
	// Distance never exceeds the length of the longer string (in runes).
	f := func(a, b string) bool {
		ra, rb := []rune(a), []rune(b)
		n := len(ra)
		if len(rb) > n {
			n = len(rb)
		}
		return Levenshtein(a, b) <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinLowerBound(t *testing.T) {
	// Distance is at least the difference of lengths.
	f := func(a, b string) bool {
		ra, rb := []rune(a), []rune(b)
		d := len(ra) - len(rb)
		if d < 0 {
			d = -d
		}
		return Levenshtein(a, b) >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDLPositivity(t *testing.T) {
	f := func(a, b string) bool {
		d := DamerauLevenshtein(a, b)
		if a == b {
			return d == 0
		}
		return d > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedRange(t *testing.T) {
	f := func(a, b string) bool {
		n := Normalized(DL, a, b)
		return n >= 0 && n <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedExamples(t *testing.T) {
	// Paper Example 3.1: changing a 3-char city (PHI -> NYC) has normalized
	// distance 3/3 = 1; changing zip 10012 -> 19014 is 3 edits over 5 = 0.6...
	// the paper quotes 1/3 for the AC change (212 -> 215, one substitution
	// over 3 chars) and 2/5 for the zip change in its cost arithmetic.
	if got := Normalized(DL, "PHI", "NYC"); got != 1 {
		t.Errorf("Normalized(PHI, NYC) = %v, want 1", got)
	}
	if got := Normalized(DL, "212", "215"); got != 1.0/3 {
		t.Errorf("Normalized(212, 215) = %v, want 1/3", got)
	}
	if got := Normalized(DL, "", ""); got != 0 {
		t.Errorf("Normalized(\"\", \"\") = %v, want 0", got)
	}
	// Longer strings with one edit are closer than shorter strings with one.
	long := Normalized(DL, "Pennsylvania", "Pennsylvani0")
	short := Normalized(DL, "PA", "P0")
	if long >= short {
		t.Errorf("normalized distance should favor long strings: long=%v short=%v", long, short)
	}
}

func TestMetricFuncAdapter(t *testing.T) {
	m := Func(func(a, b string) int { return len(a) + len(b) })
	if got := m.Distance("ab", "c"); got != 3 {
		t.Errorf("Func adapter = %d, want 3", got)
	}
}

func TestLevenshteinLongStrings(t *testing.T) {
	a := strings.Repeat("ab", 500)
	b := strings.Repeat("ab", 499) + "ba"
	if got := DamerauLevenshtein(a, b); got != 1 {
		t.Errorf("DL on long strings = %d, want 1", got)
	}
}

func BenchmarkDamerauLevenshtein(b *testing.B) {
	x := "Pennsylvania Avenue 1600"
	y := "Pennsylvanai Avenue 1060"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DamerauLevenshtein(x, y)
	}
}
