package cfd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cfdclean/internal/relation"
)

// checkStoreEquivalence asserts the store's maintained state is exactly
// what a freshly built detector computes over the relation's current
// contents: the canonical violation list bit for bit (tuples, rules,
// partners, merge order), the vio(t) map, and the total.
func checkStoreEquivalence(t *testing.T, tag string, s *VioStore, rel *relation.Relation, sigma []*Normal) {
	t.Helper()
	fresh := NewDetector(rel, sigma)
	wantVios := fresh.Detect()
	gotVios := s.Detect()
	if !(len(gotVios) == 0 && len(wantVios) == 0) && !reflect.DeepEqual(gotVios, wantVios) {
		t.Fatalf("%s: store Detect diverged: got %d violations, want %d\ngot:  %v\nwant: %v",
			tag, len(gotVios), len(wantVios), gotVios, wantVios)
	}
	wantAll := fresh.VioAll()
	gotAll := s.VioAll()
	if !reflect.DeepEqual(gotAll, wantAll) {
		t.Fatalf("%s: store VioAll diverged:\ngot:  %v\nwant: %v", tag, gotAll, wantAll)
	}
	if got, want := s.TotalViolations(), fresh.TotalViolations(); got != want {
		t.Fatalf("%s: store total %d, fresh total %d", tag, got, want)
	}
	if got, want := s.Satisfied(), fresh.Satisfied(); got != want {
		t.Fatalf("%s: store Satisfied %v, fresh %v", tag, got, want)
	}
	// Per-tuple counts through the owned-tuple fast path.
	for _, tt := range rel.Tuples() {
		if got, want := s.VioTuple(tt), fresh.VioTuple(tt); got != want {
			t.Fatalf("%s: VioTuple(t%d) = %d, fresh %d", tag, tt.ID, got, want)
		}
	}
	// Group totals must cover the whole multiset.
	sum := 0
	for gi := range fresh.Groups() {
		sum += s.GroupTotal(gi)
	}
	if sum != s.TotalViolations() {
		t.Fatalf("%s: group totals sum %d != total %d", tag, sum, s.TotalViolations())
	}
	// The maintained violation-graph components must equal the partition
	// a scratch union-find derives from the fresh violation list.
	if got, want := s.Components(), referenceComponents(wantVios); !reflect.DeepEqual(got, want) {
		if len(got) != 0 || len(want) != 0 {
			t.Fatalf("%s: components diverged:\ngot:  %v\nwant: %v", tag, got, want)
		}
	}
}

// referenceComponents computes the violation-graph partition from a
// violation list with a throwaway union-find, in the canonical order
// Components promises (members ascending, components by smallest member).
func referenceComponents(vios []Violation) [][]relation.TupleID {
	parent := make(map[relation.TupleID]relation.TupleID)
	var find func(relation.TupleID) relation.TupleID
	find = func(id relation.TupleID) relation.TupleID {
		if parent[id] == id {
			return id
		}
		r := find(parent[id])
		parent[id] = r
		return r
	}
	node := func(id relation.TupleID) {
		if _, ok := parent[id]; !ok {
			parent[id] = id
		}
	}
	for _, v := range vios {
		node(v.T)
		if v.With != 0 {
			node(v.With)
			ra, rb := find(v.T), find(v.With)
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	byRoot := make(map[relation.TupleID][]relation.TupleID)
	for id := range parent {
		byRoot[find(id)] = append(byRoot[find(id)], id)
	}
	out := make([][]relation.TupleID, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func paperSigma(s *relation.Schema) []*Normal {
	return NormalizeAll([]*CFD{phi1(s), phi2(s), phi3(s), phi4(s)})
}

func TestVioStoreMatchesDetectorOnPaperData(t *testing.T) {
	rel := paperData(t)
	sigma := paperSigma(rel.Schema())
	s := NewVioStore(rel, sigma)
	defer s.Close()
	checkStoreEquivalence(t, "initial", s, rel, sigma)

	// The Fig. 1 repair: t1[CT] := NYC resolves phi1's 212 pattern rows.
	first := rel.Tuples()[2]
	if _, err := rel.Set(first.ID, 6, relation.S("NYC")); err != nil {
		t.Fatal(err)
	}
	checkStoreEquivalence(t, "after Set CT", s, rel, sigma)

	// Insert a fresh violating tuple.
	tu, err := rel.InsertRow("a23", "H. Porter", "99.99", "215", "8983490", "Walnut", "CHI", "IL", "19014")
	if err != nil {
		t.Fatal(err)
	}
	checkStoreEquivalence(t, "after insert", s, rel, sigma)

	// Delete it again.
	rel.Delete(tu.ID)
	checkStoreEquivalence(t, "after delete", s, rel, sigma)
}

// TestVioStoreFuzzEquivalence drives random insert/delete/update
// sequences (updates of X and of A, to values and to null, in clean and
// dirty buckets alike) against a store and asserts, after every mutation,
// that the maintained state is bit-identical to a freshly built detector,
// that every LHS index's bucket tallies equal a recount, and that
// Group.VioCount agrees with the bucket walk it replaced.
func TestVioStoreFuzzEquivalence(t *testing.T) {
	schema := orderSchema()
	sigma := paperSigma(schema)

	// Small value pools per attribute keep collisions (and hence
	// violations, bucket moves, pattern matches) frequent.
	pools := [][]string{
		{"a23", "a12", "a89"},                        // id
		{"H. Porter", "J. Denver", "Snow White"},     // name
		{"17.99", "7.94", "18.99"},                   // PR
		{"212", "215", "610", "415"},                 // AC
		{"8983490", "3456789", "3345677", "5674322"}, // PN
		{"Walnut", "Spruce", "Canel", "Broad"},       // STR
		{"PHI", "NYC", "CHI"},                        // CT
		{"PA", "NY", "IL"},                           // ST
		{"10012", "19014", "60614"},                  // zip
	}
	randVal := func(rng *rand.Rand, a int) relation.Value {
		if rng.Intn(8) == 0 {
			return relation.NullValue
		}
		p := pools[a]
		return relation.S(p[rng.Intn(len(p))])
	}

	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rel := relation.New(schema)
			// Seed population.
			for i := 0; i < 12; i++ {
				vals := make([]relation.Value, schema.Arity())
				for a := range vals {
					vals[a] = randVal(rng, a)
				}
				rel.MustInsert(&relation.Tuple{Vals: vals})
			}
			s := NewVioStore(rel, sigma)
			defer s.Close()
			// Constant-only groups index lazily; build theirs too, so the
			// store maintains every kind.
			for _, g := range s.d.groups {
				s.d.index(g)
			}
			checkStoreEquivalence(t, "seeded", s, rel, sigma)
			checkCountedIndexes(t, "seeded", s.d, rng)

			for step := 0; step < 120; step++ {
				tag := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(10); {
				case op < 3: // insert
					vals := make([]relation.Value, schema.Arity())
					for a := range vals {
						vals[a] = randVal(rng, a)
					}
					rel.MustInsert(&relation.Tuple{Vals: vals})
				case op < 5: // delete
					ts := rel.Tuples()
					if len(ts) == 0 {
						continue
					}
					rel.Delete(ts[rng.Intn(len(ts))].ID)
				default: // update
					ts := rel.Tuples()
					if len(ts) == 0 {
						continue
					}
					tu := ts[rng.Intn(len(ts))]
					a := rng.Intn(schema.Arity())
					if _, err := rel.Set(tu.ID, a, randVal(rng, a)); err != nil {
						t.Fatal(err)
					}
				}
				checkStoreEquivalence(t, tag, s, rel, sigma)
				checkCountedIndexes(t, tag, s.d, rng)
			}
			if total, skipped := s.Rescans(); skipped == 0 || skipped == total {
				t.Errorf("%d bucket rescans, %d skipped: the stream should leave both clean and dirty buckets behind", total, skipped)
			}
		})
	}
}

// TestVioStoreCloseDetaches asserts mutations after Close are no longer
// maintained (and cost nothing): the store keeps its last state.
func TestVioStoreCloseDetaches(t *testing.T) {
	rel := paperData(t)
	sigma := paperSigma(rel.Schema())
	s := NewVioStore(rel, sigma)
	before := s.TotalViolations()
	s.Close()
	if _, err := rel.InsertRow("zz", "X", "1", "212", "3345677", "Canel", "LA", "CA", "10012"); err != nil {
		t.Fatal(err)
	}
	if s.TotalViolations() != before {
		t.Fatalf("store kept maintaining after Close: %d -> %d", before, s.TotalViolations())
	}
}

// TestVioStoreApplyUndoProbe exercises the apply/undo pattern the repair
// layers use: insert scratch tuples, read maintained counts, delete them,
// rewind the id mark — the store must return exactly to its prior state.
func TestVioStoreApplyUndoProbe(t *testing.T) {
	rel := paperData(t)
	sigma := paperSigma(rel.Schema())
	s := NewVioStore(rel, sigma)
	defer s.Close()
	beforeVios := s.Detect()
	beforeNext := rel.NextID()

	probe := relation.NewTuple(0, "a23", "H. Porter", "1.00", "215", "8983490", "Walnut", "CHI", "IL", "19014")
	rel.MustInsert(probe)
	if s.VioCount(probe.ID) == 0 {
		t.Fatal("probe tuple should violate (CT/ST disagree with the 215 bucket)")
	}
	rel.Delete(probe.ID)
	rel.RestoreNextID(beforeNext)

	if got := rel.NextID(); got != beforeNext {
		t.Fatalf("id mark not restored: %d != %d", got, beforeNext)
	}
	afterVios := s.Detect()
	if !reflect.DeepEqual(beforeVios, afterVios) {
		t.Fatalf("apply/undo left residue:\nbefore: %v\nafter:  %v", beforeVios, afterVios)
	}
	checkStoreEquivalence(t, "after undo", s, rel, sigma)
}

// TestVioStoreComponentStateDrains pins the streaming-session memory
// bound: when the violation total drains back to zero the union-find
// behind Components is dropped outright, instead of accumulating an
// entry for every tuple that ever violated. Re-entering violations must
// rebuild it correctly from scratch.
func TestVioStoreComponentStateDrains(t *testing.T) {
	rel := paperData(t)
	sigma := paperSigma(rel.Schema())
	s := NewVioStore(rel, sigma)
	defer s.Close()
	if s.Satisfied() {
		t.Fatal("paper data should start dirty")
	}
	if s.comp.parent == nil {
		t.Fatal("violations present but no union-find state")
	}

	// Drain to zero by deleting every violating tuple; each tuple that
	// ever violated would be a permanent comp.parent entry without the
	// reset.
	for !s.Satisfied() {
		var victim relation.TupleID
		for id := range s.VioAll() {
			victim = id
			break
		}
		rel.Delete(victim)
	}
	if s.comp.parent != nil || s.comp.stale {
		t.Fatalf("drained store kept union-find state: %d entries, stale=%v",
			len(s.comp.parent), s.comp.stale)
	}
	if got := s.Components(); len(got) != 0 {
		t.Fatalf("drained store has %d components", len(got))
	}

	// Violations re-entering rebuild the structure from scratch and
	// Components stays canonical.
	if _, err := rel.InsertRow("a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "CHI", "IL", "19014"); err != nil {
		t.Fatal(err)
	}
	if s.Satisfied() {
		t.Fatal("inserted tuple should violate")
	}
	if got, want := s.Components(), referenceComponents(s.Detect()); !reflect.DeepEqual(got, want) {
		t.Fatalf("components after rebuild = %v, want %v", got, want)
	}
}

// TestVioStoreParallelScan builds a store over enough buckets that the
// initial scan is split across workers (a worker per scanWorkerBuckets)
// and checks its state against a freshly built detector's.
func TestVioStoreParallelScan(t *testing.T) {
	s := relation.MustSchema("r", "k", "v")
	r := relation.New(s)
	for i := 0; i < 3*scanWorkerBuckets; i++ {
		r.MustInsert(relation.NewTuple(0, fmt.Sprint("k", i), "v"))
		if i%97 == 0 { // a second tuple under the key, disagreeing on v
			r.MustInsert(relation.NewTuple(0, fmt.Sprint("k", i), "w"))
		}
	}
	fd, err := FD("fd", s, []string{"k"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	sigma := fd.Normalize()
	st := NewVioStoreWorkers(r, sigma, 3)
	defer st.Close()
	if st.Satisfied() {
		t.Fatal("fixture has no violations; it exercises nothing")
	}
	checkStoreEquivalence(t, "parallel scan", st, r, sigma)
}
