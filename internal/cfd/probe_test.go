package cfd

import (
	"math/rand"
	"slices"
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
	store := NewVioStore(r, sigma)
	defer store.Close()
	det := store.Detector()
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
			pb, pc := g.Bucket(probe)
			fb, fc := g.Bucket(free)
			if !slices.Equal(pb, fb) || pc != fc {
				t.Fatalf("step %d group %d: bucket %v for the probe, %v free-standing", i, gi, pb, fb)
			}
		}
		if got, want := det.VioTuple(probe), det.VioTuple(free); got != want {
			t.Fatalf("step %d: VioTuple(probe) = %d, free-standing %d", i, got, want)
		}
		// The bucket walk compares ids like every other probe: group by
		// group it counts, for the probe and the free-standing copy alike,
		// as many violations as vio(t) does.
		byGroup := 0
		for gi, g := range det.Groups() {
			pw, fw := walkVioInGroup(det, g.g, probe), walkVioInGroup(det, g.g, free)
			if pw != fw {
				t.Fatalf("step %d group %d: the walk counts %d violations of the probe, %d of the free-standing copy", i, gi, pw, fw)
			}
			byGroup += pw
		}
		if want := det.VioTuple(probe); byGroup != want {
			t.Fatalf("step %d: the walk counts %d violations of %v, VioTuple %d", i, byGroup, probe, want)
		}
	}
}

// TestVioCountProbeDoesNotAllocate pins the budget of TUPLERESOLVE's
// innermost calls: on a probe that carries its ids, Group.VioCount — the
// pattern match, the index probe and the read of the bucket's tally — and
// Detector.VioCounts, the same for every group with one probe per distinct
// X, allocate nothing, in a clean bucket (one inline value), in a dirty one
// (the tally's map) and when the probe's own stored copy has to be looked
// up and discounted.
func TestVioCountProbeDoesNotAllocate(t *testing.T) {
	r := paperData(t)
	// A third a23 under another name: ϕ3's [id] bucket now holds two names,
	// the second of them in the tally's map.
	if _, err := r.InsertRow("a23", "H. Potter", "17.99", "610", "3456789", "Spruce", "PHI", "PA", "19014"); err != nil {
		t.Fatal(err)
	}
	s := r.Schema()
	store := NewVioStore(r, NormalizeAll([]*CFD{phi1(s), phi2(s), phi3(s), phi4(s)}))
	defer store.Close()
	det := store.Detector()
	// t5 of Example 5.1: matches constant rows of ϕ1 and ϕ2 and shares
	// its id with the stored a23 tuples (variable rows of ϕ3).
	t5 := relation.NewTuple(0, "a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "NYC", "PA", "10012").Probe(r.Dict())
	// A stored tuple's own TupleID with a city no tuple of its buckets
	// carries: every group counts partners, less the stored copy.
	own := r.Tuples()[0].Probe(r.Dict())
	own.SetAt(6, r.Dict().Resolve(relation.S("CHI")))
	potter := t5.Probe(r.Dict())
	potter.SetAt(1, r.Dict().Resolve(relation.S("H. Potter")))
	for _, probe := range []*relation.Tuple{t5, own, potter} {
		total := 0
		for _, g := range det.Groups() {
			g.VioCount(probe) // builds the group's lazy LHS index
			total += g.VioCount(probe)
		}
		if total == 0 {
			t.Fatalf("%v violates nothing; it would not exercise the partner count", probe)
		}
		for gi, g := range det.Groups() {
			if n := testing.AllocsPerRun(100, func() { g.VioCount(probe) }); n != 0 {
				t.Errorf("group %d: VioCount(%v) allocates %v times per call, want 0", gi, probe, n)
			}
		}
		counts := det.VioCounts(probe, nil)
		if n := testing.AllocsPerRun(100, func() { counts = det.VioCounts(probe, counts) }); n != 0 {
			t.Errorf("VioCounts(%v) allocates %v times per call, want 0", probe, n)
		}
		sum := 0
		for _, n := range counts {
			sum += n
		}
		if sum != total {
			t.Errorf("VioCounts(%v) sums to %d, the groups' VioCount to %d", probe, sum, total)
		}
	}
}
