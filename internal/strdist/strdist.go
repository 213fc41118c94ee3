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
// Implementations must guarantee Distance(a, a) == 0 and symmetry.
type Metric interface {
	// Distance returns the edit distance between a and b.
	Distance(a, b string) int
}

// Func adapts an ordinary function to the Metric interface.
type Func func(a, b string) int

// Distance calls f(a, b).
func (f Func) Distance(a, b string) int { return f(a, b) }

// DL is the package-default Damerau–Levenshtein metric. It implements
// BoundedMetric with a pruned dynamic program.
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
	return prev[lb]
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
// greater than max. Index structures that search within a radius (the
// BK-tree of package cluster) use it to prune the dynamic program, which
// dominates whole-run profiles otherwise.
type BoundedMetric interface {
	Metric
	// DistanceBounded returns the distance if it is ≤ max, or any value
	// > max otherwise.
	DistanceBounded(a, b string, max int) int
}

// DistanceBounded makes DL a BoundedMetric via DamerauLevenshteinBounded
// when f is the package default; other Funcs fall back to full distance.
func (f Func) DistanceBounded(a, b string, max int) int {
	return f(a, b)
}

type dlMetric struct{}

func (dlMetric) Distance(a, b string) int { return DamerauLevenshtein(a, b) }
func (dlMetric) DistanceBounded(a, b string, max int) int {
	return DamerauLevenshteinBounded(a, b, max)
}

// stackLen is the longest string the ASCII fast path of the DL kernels
// takes: both strings and the three DP rows then live in fixed-size arrays
// on the stack.
const stackLen = 63

// DamerauLevenshteinBounded is DamerauLevenshtein with a cutoff: it
// returns max+1 as soon as the distance provably exceeds max. The length
// difference is a lower bound on the distance, and each DP row's minimum
// is non-decreasing, so both give cheap early exits.
//
// Two ASCII strings of at most stackLen bytes — nearly every value the
// repair loops compare — are handled without touching the heap; anything
// else goes through dlRunes.
func DamerauLevenshteinBounded(a, b string, max int) int {
	if max < 0 {
		return 0
	}
	if len(a) > stackLen || len(b) > stackLen || !isASCII(a) || !isASCII(b) {
		return dlRunes(a, b, max)
	}
	if d := len(a) - len(b); d > max || -d > max {
		return max + 1
	}
	var sa, sb [stackLen]byte
	var rows [3][stackLen + 1]int
	n := len(b) + 1
	return dlRows(sa[:copy(sa[:], a)], sb[:copy(sb[:], b)], rows[0][:n], rows[1][:n], rows[2][:n], max)
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
	return dlRows(ra, rb, rows[:n], rows[n:2*n], rows[2*n:], max)
}

// dlRows runs the bounded three-row DL dynamic program over two symbol
// sequences: prev2 = row i-2, prev = row i-1, cur = row i, each of length
// len(b)+1 and supplied by the caller.
func dlRows[T byte | rune](a, b []T, prev2, prev, cur []int, max int) int {
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
	la, lb := len([]rune(a)), len([]rune(b))
	n := la
	if lb > n {
		n = lb
	}
	if n == 0 {
		return 0
	}
	return float64(m.Distance(a, b)) / float64(n)
}

// JaroWinkler returns the Jaro–Winkler similarity between a and b scaled
// into a distance in [0,1] (0 = identical). It is provided as an
// alternative metric (paper §3.2 remark 2, citing [11]); the repair
// algorithms only require a normalized distance in [0,1].
func JaroWinkler(a, b string) float64 {
	sim := jaroWinklerSim(a, b)
	return 1 - sim
}

func jaroWinklerSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	var matches int
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	var transpositions int
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	jaro := (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
	// Winkler prefix boost, standard p = 0.1, prefix capped at 4.
	prefix := 0
	for prefix < la && prefix < lb && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return jaro + float64(prefix)*0.1*(1-jaro)
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

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
