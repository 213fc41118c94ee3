package strdist

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// checkBounded asserts the whole contract of DamerauLevenshteinBounded on
// one input: it decides "distance ≤ max" exactly as the unbounded metric
// does and returns the distance when so, it is symmetric, and the
// bit-vector kernel (taken or not, as the input decides) agrees with the
// rune path taken unconditionally.
func checkBounded(t *testing.T, a, b string, max int) {
	t.Helper()
	got := DamerauLevenshteinBounded(a, b, max)
	if max < 0 {
		if got <= max {
			t.Fatalf("Bounded(%q,%q,%d) = %d, must exceed a negative bound", a, b, max, got)
		}
		return
	}
	full := dlRunes(a, b, len(a)+len(b))
	if d := DamerauLevenshtein(a, b); d != full {
		t.Fatalf("DL(%q,%q) = %d, rune path says %d", a, b, d, full)
	}
	if (got <= max) != (full <= max) {
		t.Fatalf("Bounded(%q,%q,%d) = %d but DL = %d", a, b, max, got, full)
	}
	if full <= max && got != full {
		t.Fatalf("Bounded(%q,%q,%d) = %d, want the exact %d", a, b, max, got, full)
	}
	if rev := DamerauLevenshteinBounded(b, a, max); (rev <= max) != (got <= max) || (got <= max && rev != got) {
		t.Fatalf("Bounded(%q,%q,%d) = %d but reversed = %d", a, b, max, got, rev)
	}
	if slow := dlRunes(a, b, max); (slow <= max) != (got <= max) || (got <= max && slow != got) {
		t.Fatalf("Bounded(%q,%q,%d): fast path %d, rune path %d", a, b, max, got, slow)
	}
}

func randomString(rng *rand.Rand, n int, ascii bool) string {
	alphabet := []rune("abcde")
	if !ascii {
		alphabet = []rune("abcdéß世")
	}
	r := make([]rune, n)
	for i := range r {
		r[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(r)
}

// TestFastPathMatchesRunePath drives random ASCII and non-ASCII pairs —
// small alphabets, so transpositions and near-misses are common — through
// every bound around the true distance.
func TestFastPathMatchesRunePath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		a := randomString(rng, rng.Intn(12), rng.Intn(4) > 0)
		b := randomString(rng, rng.Intn(12), rng.Intn(4) > 0)
		for max := -1; max <= 13; max++ {
			checkBounded(t, a, b, max)
		}
	}
}

// TestFastPathBoundary: 64 bytes is the last pattern length the bit-vector
// kernel serves, 65 the first that falls back (unless the other string is
// short enough to be the pattern); both sides of the boundary, on either
// argument, must agree with the rune path.
func TestFastPathBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, la := range []int{0, 1, 62, 63, 64, 65} {
		for _, lb := range []int{0, 1, 62, 63, 64, 65} {
			for i := 0; i < 20; i++ {
				a, b := randomString(rng, la, true), randomString(rng, lb, true)
				if i%2 == 0 && la <= lb {
					// A near-copy, so that the distance is small and the
					// DP runs to the last row and column.
					b = a + strings.Repeat("x", lb-la)
				}
				for _, max := range []int{0, 1, 3, 8, 70, 200} {
					checkBounded(t, a, b, max)
				}
			}
		}
	}
	// 63 bytes of which one is half of a two-byte rune: not ASCII.
	a := strings.Repeat("a", 61) + "é"
	checkBounded(t, a, strings.Repeat("a", 63), 5)
}

// corpus seeds both fuzz targets below, and TestMetricsSeparateDistinctStrings
// runs on its pairs.
var corpus = []struct {
	a, b string
	max  int // FuzzDamerauLevenshteinBounded's third argument
}{
	{"", "", 0},
	{"abc", "acb", 1},
	{"kitten", "sitting", 2},
	{"héllo", "hello", 1},
	{"Pennsylvania Avenue 1600", "Pennsylvanai Avenue 1060", 8},
	{strings.Repeat("ab", 32), strings.Repeat("ba", 31) + "a", 70},
	{"\xff\xfe", "a", -1},
	{"31.16", "13.17", 2}, // PR 13: the transposition that is then edited
	{"abc", "abc", 0},
	{"walnut", "wallnut", 1},
	{"short", "a much longer string entirely", 30},
	{"ab", "ba", 1},
	{"abcdef", "ghijkl", 3},
	{strings.Repeat("a", 63) + "b", strings.Repeat("a", 63) + "cb", 1},
	// Distinct strings of equal runes: every invalid byte decodes to U+FFFD.
	{"\xff", "\xfe", 0},
	{"caf\xe9", "caf\xe8", 1},
}

// TestMetricsSeparateDistinctStrings holds the built-in metrics to Metric's
// contract where TUPLERESOLVE leans on it: 0 between a string and itself, a
// positive distance between any two others — from DL, from Levenshtein, and
// from DL's bounded form at every cutoff from 1 up, called directly and
// through a prepared probe.
func TestMetricsSeparateDistinctStrings(t *testing.T) {
	p := new(DLProbe)
	for _, c := range corpus {
		for _, pair := range [][2]string{{c.a, c.b}, {c.b, c.a}, {c.a, c.a}, {c.b, c.b}} {
			a, b := pair[0], pair[1]
			max := 0 // the cutoff, where the metric takes one
			check := func(metric string, d int) {
				t.Helper()
				if d < 0 || (d == 0) != (a == b) {
					t.Errorf("%s(%q, %q) = %d (cutoff %d)", metric, a, b, d, max)
				}
			}
			check("DL", DL.Distance(a, b))
			check("Levenshtein", Levenshtein(a, b))
			p.Reset(a)
			for max = 1; max <= len(a)+len(b)+1; max++ {
				check("DistanceBounded", DL.(BoundedMetric).DistanceBounded(a, b, max))
				check("Probe.DistanceBounded", p.DistanceBounded(b, max))
			}
		}
	}
}

// FuzzDamerauLevenshteinBounded is the tree's first native fuzz target;
// CI runs it for a few seconds on every push.
func FuzzDamerauLevenshteinBounded(f *testing.F) {
	for _, c := range corpus {
		f.Add(c.a, c.b, c.max)
	}
	f.Fuzz(func(t *testing.T, a, b string, max int) {
		if len(a) > 200 || len(b) > 200 {
			t.Skip() // the DP is quadratic
		}
		if max > 1<<20 {
			max = 1 << 20 // max+1 must not overflow; no distance gets near
		}
		checkBounded(t, a, b, max)
	})
}

// checkBits holds the bit-vector kernel to the dynamic program it replaced
// on the hot path, to the value: both return the distance when it is ≤ max
// and exactly max+1 otherwise, in either argument order, called directly
// or through a prepared probe (whose masks must survive being reset from
// one string to another).
func checkBits(t *testing.T, p *DLProbe, a, b string, max int) {
	t.Helper()
	want := dlRunes(a, b, max)
	if got := DamerauLevenshteinBounded(a, b, max); got != want {
		t.Fatalf("Bounded(%q,%q,%d) = %d, dlRows says %d", a, b, max, got, want)
	}
	if got := DamerauLevenshteinBounded(b, a, max); got != want {
		t.Fatalf("Bounded(%q,%q,%d) = %d, dlRows says %d for the reverse", b, a, max, got, want)
	}
	p.Reset(a)
	if got := p.DistanceBounded(b, max); got != want {
		t.Fatalf("probe(%q).DistanceBounded(%q,%d) = %d, dlRows says %d", a, b, max, got, want)
	}
	p.Reset(b)
	if got := p.DistanceBounded(a, max); got != want {
		t.Fatalf("probe(%q).DistanceBounded(%q,%d) = %d, dlRows says %d", b, a, max, got, want)
	}
}

// TestOSABitsVsRows: every max from 0 to |a|+|b| on the lengths around the
// word boundary, on near-copies (so the program runs to its last column)
// and on unrelated strings, ASCII and not.
func TestOSABitsVsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := new(DLProbe)
	for _, la := range []int{0, 1, 2, 63, 64, 65} {
		for _, lb := range []int{0, 1, 2, 63, 64, 65} {
			for i := 0; i < 6; i++ {
				a, b := randomString(rng, la, i != 5), randomString(rng, lb, i != 4)
				if i < 2 && la <= lb {
					b = a + strings.Repeat("x", lb-la)
				}
				for max := 0; max <= len(a)+len(b); max++ {
					checkBits(t, p, a, b, max)
				}
			}
		}
	}
	for i := 0; i < 20000; i++ {
		a := randomString(rng, rng.Intn(20), rng.Intn(8) > 0)
		b := a
		if rng.Intn(3) == 0 {
			b = randomString(rng, rng.Intn(20), rng.Intn(8) > 0)
		}
		for e := rng.Intn(4); e > 0 && utf8.RuneCountInString(b) > 1; e-- {
			r := []rune(b)
			j := rng.Intn(len(r) - 1)
			switch rng.Intn(3) {
			case 0:
				r[j], r[j+1] = r[j+1], r[j]
			case 1:
				r[j] = 'q'
			default:
				r = append(r[:j], r[j+1:]...)
			}
			b = string(r)
		}
		checkBits(t, p, a, b, rng.Intn(len(a)+len(b)+1))
	}
}

// FuzzOSABitsVsRows: CI runs it for a few seconds on every push, next to
// FuzzDamerauLevenshteinBounded.
func FuzzOSABitsVsRows(f *testing.F) {
	for _, c := range corpus {
		f.Add(c.a, c.b)
	}
	p := new(DLProbe)
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 100 || len(b) > 100 {
			t.Skip() // every max is tried, and the DP is quadratic
		}
		for max := 0; max <= len(a)+len(b); max++ {
			checkBits(t, p, a, b, max)
		}
	})
}

// The DL kernels are the innermost loop of both repair engines (the cost
// model and the similarity search): on the values they actually see — ASCII,
// at most 64 bytes — they must not allocate, called directly or through a
// prepared probe.
func TestDLKernelsDoNotAllocate(t *testing.T) {
	a := "Pennsylvania Avenue 1600, Washington DC, the United States, x63"
	b := "Pennsylvanai Avenue 1060, Washington DC, the United States, x63"
	a, b = a+"y", b+"z"
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("fixture lengths %d, %d: want 64", len(a), len(b))
	}
	if n := testing.AllocsPerRun(100, func() { DamerauLevenshtein(a, b) }); n != 0 {
		t.Errorf("DamerauLevenshtein: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { DamerauLevenshteinBounded(a, b, 3) }); n != 0 {
		t.Errorf("DamerauLevenshteinBounded: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { DL.(BoundedMetric).DistanceBounded("walnut", "wallnut", 8) }); n != 0 {
		t.Errorf("DL.DistanceBounded: %v allocs per call, want 0", n)
	}
	// Normalized is what the cost model pays on every memo miss.
	if n := testing.AllocsPerRun(100, func() { Normalized(DL, a, b) }); n != 0 {
		t.Errorf("Normalized: %v allocs per call, want 0", n)
	}
	p := new(DLProbe)
	if n := testing.AllocsPerRun(100, func() {
		p.Reset(a)
		p.DistanceBounded(b, 3)
		p.DistanceBounded("walnut", 70)
	}); n != 0 {
		t.Errorf("probe Reset + DistanceBounded: %v allocs per call, want 0", n)
	}
}
