package cfd

import (
	"math/rand"
	"testing"

	"cfdclean/internal/relation"
)

// TestProbeMatchesFreeStanding: a relation.Tuple.Probe copy — ids looked
// up once, unseen constants as InvalidID — must get from every group
// exactly the answers the value-based slow path gives the same tuple
// free-standing: violation counts, matching rules and LHS buckets, through
// every mutation by SetAt, seen and unseen values and nulls alike.
func TestProbeMatchesFreeStanding(t *testing.T) {
	r := paperData(t)
	s := r.Schema()
	sigma := NormalizeAll([]*CFD{phi1(s), phi2(s), phi3(s), phi4(s)})
	det := NewDetector(r, sigma)
	pools := make([][]relation.Value, s.Arity())
	for a := range pools {
		for _, v := range r.ActiveDomain(a) {
			pools[a] = append(pools[a], relation.S(v))
		}
		// Pattern constants the data lacks, a constant nobody has seen,
		// and null.
		pools[a] = append(pools[a], relation.S("NYC"), relation.S("NY"), relation.S("never-seen"), relation.NullValue)
	}
	rng := rand.New(rand.NewSource(9))
	probe := r.Tuples()[0].Probe(r.Dict())
	probe.ID = 0
	for i := 0; i < 2000; i++ {
		a := rng.Intn(s.Arity())
		probe.SetAt(a, r.Dict().Resolve(pools[a][rng.Intn(len(pools[a]))]))
		free := probe.Clone()
		if free.Interned() || !probe.Interned() {
			t.Fatal("Clone must drop the ids, Probe must carry them")
		}
		for gi, g := range det.Groups() {
			if got, want := g.VioCount(probe), g.VioCount(free); got != want {
				t.Fatalf("step %d group %d: VioCount(probe %v) = %d, free-standing %d", i, gi, probe, got, want)
			}
			pr, fr := g.MatchingRules(probe), g.MatchingRules(free)
			if len(pr) != len(fr) {
				t.Fatalf("step %d group %d: %d rules match the probe, %d the free-standing copy", i, gi, len(pr), len(fr))
			}
			for j := range pr {
				if pr[j] != fr[j] {
					t.Fatalf("step %d group %d: rule %d differs", i, gi, j)
				}
			}
			pb, fb := g.Bucket(probe), g.Bucket(free)
			if len(pb) != len(fb) {
				t.Fatalf("step %d group %d: bucket of %d for the probe, %d free-standing", i, gi, len(pb), len(fb))
			}
		}
		if got, want := det.VioTuple(probe), det.VioTuple(free); got != want {
			t.Fatalf("step %d: VioTuple(probe) = %d, free-standing %d", i, got, want)
		}
	}
}

// TestVioCountProbeDoesNotAllocate pins the budget of TUPLERESOLVE's
// innermost call: on a probe that carries its ids, Group.VioCount — the
// pattern match, the index probe and the bucket scan — allocates nothing.
func TestVioCountProbeDoesNotAllocate(t *testing.T) {
	r := paperData(t)
	s := r.Schema()
	det := NewDetector(r, NormalizeAll([]*CFD{phi1(s), phi2(s), phi3(s), phi4(s)}))
	// t5 of Example 5.1: matches constant rows of ϕ1 and ϕ2 and shares
	// its id with two stored tuples (variable rows of ϕ3).
	probe := relation.NewTuple(0, "a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "NYC", "PA", "10012").Probe(r.Dict())
	total := 0
	for _, g := range det.Groups() {
		g.VioCount(probe) // builds the group's lazy LHS index
		total += g.VioCount(probe)
	}
	if total == 0 {
		t.Fatal("fixture violates nothing; it would not exercise the bucket scan")
	}
	for gi, g := range det.Groups() {
		if n := testing.AllocsPerRun(100, func() { g.VioCount(probe) }); n != 0 {
			t.Errorf("group %d: VioCount on a probe allocates %v times per call, want 0", gi, n)
		}
	}
}
