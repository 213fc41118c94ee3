// Package strdist provides string distance metrics used by the cost model
// of the CFD-repair framework.
//
// The paper (§3.2) adopts the Damerau–Levenshtein (DL) metric — the minimum
// number of single-character insertions, deletions and substitutions
// (plus adjacent transpositions) required to transform one string into the
// other — and normalizes it by the length of the longer string so that long
// strings with a one-character difference are considered closer than short
// strings with a one-character difference. Other metrics (§3.2 remark 2)
// can be plugged in through the Metric interface.
package strdist

import "unicode/utf8"

// Metric computes a non-negative distance between two strings.
// Implementations must guarantee Distance(a, a) == 0, symmetry and the
// identity of indiscernibles, Distance(a, b) > 0 for a ≠ b: TUPLERESOLVE
// (package increpair) takes an attribute left as it is for the only choice
// that costs nothing, and keeps it without weighing the others.
type Metric interface {
	// Distance returns the edit distance between a and b.
	Distance(a, b string) int
}

// Func adapts an ordinary function to the Metric interface.
type Func func(a, b string) int

// Distance calls f(a, b).
func (f Func) Distance(a, b string) int { return f(a, b) }

// DL is the package-default Damerau–Levenshtein metric. It implements
// BoundedMetric: a bit-vector program with a cutoff for ASCII strings
// that fit a machine word, a pruned dynamic program for the rest. DLProbe
// measures one string against many under it.
var DL Metric = dlMetric{}

// Levenshtein returns the classic edit distance between a and b:
// the minimum number of single-character insertions, deletions and
// substitutions transforming a into b. It operates on runes, not bytes.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Two-row dynamic program.
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return apart(a, b, prev[lb])
}

// DamerauLevenshtein returns the restricted Damerau–Levenshtein distance
// (optimal string alignment): Levenshtein plus transposition of two
// adjacent characters, with no substring edited more than once.
// This is the metric named in the paper [16].
func DamerauLevenshtein(a, b string) int {
	// The distance never exceeds the longer string, so this bound never
	// cuts the program short.
	return DamerauLevenshteinBounded(a, b, len(a)+len(b))
}

// BoundedMetric is an optional extension: DistanceBounded may give up as
// soon as it can prove the distance exceeds max, returning any value
// greater than max. A search within a radius (TUPLERESOLVE's scan of the
// active domain for the nearest values, package increpair) uses it to cut
// the distance computation short, which dominates whole-run profiles
// otherwise.
type BoundedMetric interface {
	Metric
	// DistanceBounded returns the distance if it is ≤ max, or any value
	// > max otherwise.
	DistanceBounded(a, b string, max int) int
}

type dlMetric struct{}

func (dlMetric) Distance(a, b string) int { return DamerauLevenshtein(a, b) }
func (dlMetric) DistanceBounded(a, b string, max int) int {
	return DamerauLevenshteinBounded(a, b, max)
}

// bitsLen is the longest pattern the bit-vector kernel takes: one bit of
// a machine word per byte.
const bitsLen = 64

// masks are a pattern's match vectors: bit i of masks[c] is set when the
// pattern's byte i is c. ASCII only, which is what the table's size says.
type masks [utf8.RuneSelf]uint64

// set adds the vectors of a, at most bitsLen bytes, to all-zero masks. If a
// is not ASCII it reports false and leaves the masks all-zero.
func (pm *masks) set(a string) bool {
	for i := 0; i < len(a); i++ {
		c := a[i]
		if c >= utf8.RuneSelf {
			pm.clear(a[:i])
			return false
		}
		pm[c] |= 1 << uint(i)
	}
	return true
}

// clear undoes set(a) for an ASCII a.
func (pm *masks) clear(a string) {
	for i := 0; i < len(a); i++ {
		pm[a[i]] = 0
	}
}

// DLProbe measures DL distances from one string, for a search that
// measures one string against many (a query against every value of an
// active domain): the ASCII check of the string and its match vectors are
// made once per Reset, so a distance costs one pass over b. The zero value
// is ready for Reset; a probe is one goroutine's scratch.
type DLProbe struct {
	a    string
	bits bool // a is ASCII, at most bitsLen bytes, and pm holds its vectors
	pm   masks
}

// Reset makes a the string distances are measured from.
func (p *DLProbe) Reset(a string) {
	if p.bits {
		p.pm.clear(p.a)
	}
	p.a = a
	p.bits = len(a) <= bitsLen && p.pm.set(a)
}

// DistanceBounded is DL's DistanceBounded(a, b, max) from the string of
// the last Reset.
func (p *DLProbe) DistanceBounded(b string, max int) int {
	if p.bits && max >= 0 {
		if d, ok := osaBits(&p.pm, len(p.a), b, max); ok {
			return d
		}
	}
	return DamerauLevenshteinBounded(p.a, b, max)
}

// DamerauLevenshteinBounded is DamerauLevenshtein with a cutoff: it
// returns max+1 as soon as the distance provably exceeds max.
//
// Two ASCII strings of which one has at most bitsLen bytes — nearly every
// pair the repair loops compare — go through the bit-vector kernel without
// touching the heap; anything else goes through dlRunes.
func DamerauLevenshteinBounded(a, b string, max int) int {
	if max < 0 {
		return 0
	}
	if len(a) > bitsLen {
		a, b = b, a // the metric is symmetric; the shorter string is the pattern
	}
	var pm masks
	if len(a) <= bitsLen && pm.set(a) {
		if d, ok := osaBits(&pm, len(a), b, max); ok {
			return d
		}
	}
	return dlRunes(a, b, max)
}

// osaBits is the bounded restricted DL distance between a pattern of
// m ≤ bitsLen ASCII bytes, given by its match vectors, and b: Hyyrö's
// bit-parallel program for the optimal-string-alignment distance ("A
// bit-vector algorithm for computing Levenshtein and Damerau edit
// distances", 2003). Column j of the dynamic program lives in two words —
// vp and vn, the rows where it steps up or down by one — and moves to
// column j+1 in a dozen word operations, whatever m is; tr carries the
// transposition (b[j-1], b[j] matching the pattern's bytes i, i-1) into
// the diagonal vector d0. The score is the column's last cell. It can
// fall by at most one per remaining column, which is the cutoff.
//
// ok is false when b holds a non-ASCII byte: distances count runes, so
// the caller must take the rune path. The lengths, in bytes, decide
// nothing before b is known to be ASCII.
func osaBits(pm *masks, m int, b string, max int) (d int, ok bool) {
	n := len(b)
	if d := m - n; d > max || -d > max || m == 0 {
		if !isASCII(b) {
			return 0, false
		}
		if m == 0 && n <= max {
			return n, true
		}
		return max + 1, true
	}
	vp, vn, d0, prev := ^uint64(0), uint64(0), uint64(0), uint64(0)
	last := uint64(1) << uint(m-1)
	score := m
	for j := 0; j < n; j++ {
		c := b[j]
		if c >= utf8.RuneSelf {
			return 0, false
		}
		eq := pm[c]
		tr := (^d0 & eq) << 1 & prev
		d0 = ((eq & vp) + vp) ^ vp | eq | vn | tr
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&last != 0 {
			score++
		} else if hn&last != 0 {
			score--
		}
		hp = hp<<1 | 1
		vp = hn<<1 | ^(d0 | hp)
		vn = hp & d0
		prev = eq
		if score-(n-1-j) > max {
			// Sound even if a rune follows: fewer columns remain, not more.
			return max + 1, true
		}
	}
	return score, true
}

// dlRunes is the general path of DamerauLevenshteinBounded (max ≥ 0): it
// decodes both strings to runes and allocates the DP rows.
func dlRunes(a, b string, max int) int {
	if d := utf8.RuneCountInString(a) - utf8.RuneCountInString(b); d > max || -d > max {
		return max + 1
	}
	ra, rb := []rune(a), []rune(b)
	n := len(rb) + 1
	rows := make([]int, 3*n)
	return apart(a, b, dlRows(ra, rb, rows[:n], rows[n:2*n], rows[2*n:], max))
}

// apart is d unless two distinct strings measured 0: every invalid byte
// decodes to the one U+FFFD, and Metric's contract keeps such a pair an
// edit apart.
func apart(a, b string, d int) int {
	if d == 0 && a != b {
		return 1
	}
	return d
}

// dlRows runs the bounded three-row DL dynamic program over two rune
// sequences: prev2 = row i-2, prev = row i-1, cur = row i, each of length
// len(b)+1 and supplied by the caller. Each row's minimum is
// non-decreasing, which is the cutoff.
func dlRows(a, b []rune, prev2, prev, cur []int, max int) int {
	n := len(b)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		rowMin := i
		for j := 1; j <= n; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
			if d < rowMin {
				rowMin = d
			}
		}
		if rowMin > max {
			return max + 1
		}
		prev2, prev, cur = prev, cur, prev2
	}
	if prev[n] > max {
		return max + 1
	}
	return prev[n]
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Normalized returns dis(a,b)/max(|a|,|b|) under metric m, the similarity
// measure used by the paper's cost model (§3.2). It lies in [0, 1] for
// metrics bounded by the longer string length (true for Levenshtein and DL).
// Normalized("", "") is 0: identical strings have zero distance.
func Normalized(m Metric, a, b string) float64 {
	n := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
	if n == 0 {
		return 0
	}
	return float64(m.Distance(a, b)) / float64(n)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
