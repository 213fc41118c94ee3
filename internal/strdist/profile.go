package strdist

import (
	"math/bits"
	"unicode/utf8"
)

// Profile is a string's character profile, the bag of its bytes folded
// into 64 classes (byte c into class c mod 64) with each class's count
// capped at two: bit c of the first word is set when a byte of class c
// occurs, the same bit of the second when such bytes occur twice or more.
// A string with a byte ≥ 0x80 has the zero Profile, which LowerBound
// reads as "unknown": distances count runes, and a bag of bytes says
// nothing about them.
type Profile struct {
	once, twice uint64
}

// ProfileOf returns the profile of s.
func ProfileOf(s string) Profile {
	var p Profile
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return Profile{}
		}
		bit := uint64(1) << (c & 63)
		p.twice |= p.once & bit
		p.once |= bit
	}
	return p
}

// LowerBound is the bag distance of two profiles, max(|P∖Q|, |Q∖P|) over
// their capped class counts (Bartolini, Ciaccia & Patella, SPIRE 2002). It
// is a lower bound on the OSA (restricted Damerau–Levenshtein) and the
// Levenshtein distance of any two strings with these profiles: of the d
// edits that turn a into b, each deletion or substitution takes one
// occurrence out of a's bag, each insertion or substitution puts one into
// it, and a transposition changes nothing, so neither side of the bag
// difference exceeds d; folding classes and capping counts only shrinks
// it. It is 0 when either profile is zero — a string with a byte ≥ 0x80,
// or the empty string, for which 0 is merely weak.
func LowerBound(p, q Profile) int {
	if p == (Profile{}) || q == (Profile{}) {
		return 0
	}
	pq := bits.OnesCount64(p.once&^q.once) + bits.OnesCount64(p.twice&^q.twice)
	qp := bits.OnesCount64(q.once&^p.once) + bits.OnesCount64(q.twice&^p.twice)
	return max(pq, qp)
}
