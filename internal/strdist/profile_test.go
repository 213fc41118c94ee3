package strdist

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// profileCases are the profile's edge cases, with the bound each pair
// must get: classes that fold together, counts past the cap, the empty
// string, runes, and strings longer than the bit-vector kernel's word.
var profileCases = []struct {
	a, b  string
	bound int
}{
	{"kitten", "sitting", 3}, // {k e} vs {s i g}: as tight as the distance
	{"abc", "abd", 1},
	{"abc", "cba", 0}, // the same bag
	{"0", "p", 0},     // '0' and 'p' fold into class 48
	{"0", "q", 1},
	{"aaab", "abbb", 1}, // counts capped at two: a 2|1, b 1|2 (the true bag says 2)
	{"aa", "a", 1},
	{"aaa", "a", 1},
	{"", "", 0},
	{"", "abc", 0}, // the zero profile bounds nothing
	{"héllo", "hello", 0},
	{"Köln", "Kxyzw", 0},
	{strings.Repeat("ab", 40), strings.Repeat("ba", 40), 0},
	{strings.Repeat("ab", 40), strings.Repeat("ab", 39) + "cd", 2},
}

func TestLowerBound(t *testing.T) {
	for _, c := range profileCases {
		checkProfileBound(t, c.a, c.b)
		if got := LowerBound(ProfileOf(c.a), ProfileOf(c.b)); got != c.bound {
			t.Errorf("LowerBound(%q, %q) = %d, want %d", c.a, c.b, got, c.bound)
		}
	}
}

// checkProfileBound holds the bound's contract on one pair: it never
// exceeds either distance it bounds, it is symmetric, it is 0 when either
// string has a byte ≥ 0x80, and a profile is at bound 0 from itself.
func checkProfileBound(t *testing.T, a, b string) {
	t.Helper()
	p, q := ProfileOf(a), ProfileOf(b)
	lb := LowerBound(p, q)
	if d := DamerauLevenshtein(a, b); lb > d {
		t.Fatalf("LowerBound(%q, %q) = %d exceeds the OSA distance %d", a, b, lb, d)
	}
	if d := Levenshtein(a, b); lb > d {
		t.Fatalf("LowerBound(%q, %q) = %d exceeds the Levenshtein distance %d", a, b, lb, d)
	}
	if rev := LowerBound(q, p); rev != lb {
		t.Fatalf("LowerBound(%q, %q) = %d but reversed = %d", a, b, lb, rev)
	}
	if (!isASCII(a) || !isASCII(b)) && lb != 0 {
		t.Fatalf("LowerBound(%q, %q) = %d, want 0 past ASCII", a, b, lb)
	}
	if LowerBound(p, p) != 0 || LowerBound(q, q) != 0 {
		t.Fatalf("a profile of %q or %q is not at 0 from itself", a, b)
	}
}

// FuzzProfileBound: for any two strings the bag distance of their profiles
// is a sound lower bound, which is what lets the similarity search skip the
// kernel. CI runs it on every push.
func FuzzProfileBound(f *testing.F) {
	for _, c := range profileCases {
		f.Add(c.a, c.b)
	}
	f.Add(string([]byte{0x80}), "a")
	f.Add(string(utf8.RuneError), "\xff")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 200 || len(b) > 200 {
			t.Skip() // the distances are quadratic
		}
		checkProfileBound(t, a, b)
	})
}
