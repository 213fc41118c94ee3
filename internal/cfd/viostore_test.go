package cfd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cfdclean/internal/relation"
)

// checkStoreEquivalence asserts the store's maintained state is exactly
// what the every-bucket reference scan computes over the relation's current
// contents (diffStore).
func checkStoreEquivalence(t *testing.T, tag string, s *VioStore, rel *relation.Relation, sigma []*Normal) {
	t.Helper()
	if d := diffStore(s, rel, sigma); d != "" {
		t.Fatalf("%s: %s", tag, d)
	}
}

// DiffStoreVsReference builds a violation store over rel and holds it to
// the every-bucket reference scan (diffStore). It returns "" when they
// agree, else the first difference.
func DiffStoreVsReference(rel *relation.Relation, sigma []*Normal) string {
	s := NewVioStore(rel, sigma)
	defer s.Close()
	return diffStore(s, rel, sigma)
}

// diffStore compares the store with referenceDetect over rel's current
// contents: the canonical violation list bit for bit (tuples, rules,
// partners), the vio(t) map, the total and Satisfied, the per-tuple counts,
// the group totals and the components; and, by walks of the buckets, each
// partner and the vio(t) map (walkVioInGroup summed over every group,
// tuple by tuple). It returns the first difference, or "".
func diffStore(s *VioStore, rel *relation.Relation, sigma []*Normal) string {
	fresh, wantVios := referenceDetect(rel, sigma)
	gotVios := s.Detect()
	if !(len(gotVios) == 0 && len(wantVios) == 0) && !reflect.DeepEqual(gotVios, wantVios) {
		return fmt.Sprintf("store Detect diverged: got %d violations, want %d\ngot:  %v\nwant: %v",
			len(gotVios), len(wantVios), gotVios, wantVios)
	}
	// Each variable-RHS violation names as partner the smallest-id member of
	// t's bucket whose non-null A-value differs from t's (a walk, not the
	// partner labels both listings share).
	wantAll := make(map[relation.TupleID]int)
	for _, v := range wantVios {
		wantAll[v.T]++
		if v.With == 0 {
			continue
		}
		x := slices.Sorted(slices.Values(v.N.X))
		gi := slices.IndexFunc(fresh.groups, func(g *groupPlan) bool { return g.a == v.N.A && slices.Equal(g.x, x) })
		t := rel.Tuple(v.T)
		ids, _ := Group{d: fresh, g: fresh.groups[gi]}.Bucket(t)
		partner := relation.TupleID(0)
		for _, id := range ids {
			if vid := rel.Tuple(id).IDAt(v.N.A); vid != relation.NullID && vid != t.IDAt(v.N.A) {
				partner = id
				break
			}
		}
		if v.With != partner {
			return fmt.Sprintf("t%d violates %s with t%d; the bucket walk names t%d", v.T, v.N.Name, v.With, partner)
		}
	}
	gotAll := s.VioAll()
	if !reflect.DeepEqual(gotAll, wantAll) {
		return fmt.Sprintf("store VioAll diverged:\ngot:  %v\nwant: %v", gotAll, wantAll)
	}
	if got, want := s.TotalViolations(), len(wantVios); got != want {
		return fmt.Sprintf("store total %d, reference total %d", got, want)
	}
	if got, want := s.Satisfied(), len(wantVios) == 0; got != want {
		return fmt.Sprintf("store Satisfied %v, reference %v", got, want)
	}
	for _, tt := range rel.Tuples() {
		walk := 0
		for _, g := range fresh.groups {
			walk += walkVioInGroup(fresh, g, tt)
		}
		if gotAll[tt.ID] != walk {
			return fmt.Sprintf("VioAll[t%d] = %d, the bucket walk says %d", tt.ID, gotAll[tt.ID], walk)
		}
		// Per-tuple counts through the owned-tuple fast path.
		if got, want := s.VioTuple(tt), fresh.VioTuple(tt); got != want {
			return fmt.Sprintf("VioTuple(t%d) = %d, fresh %d", tt.ID, got, want)
		}
	}
	// Group totals must cover the whole multiset.
	sum := 0
	for gi := range fresh.groups {
		sum += s.GroupTotal(gi)
	}
	if sum != s.TotalViolations() {
		return fmt.Sprintf("group totals sum %d != total %d", sum, s.TotalViolations())
	}
	// The store's violation-graph components must equal the partition a
	// scratch union-find derives from the reference violation list.
	if got, want := s.Components(), referenceComponents(wantVios); !reflect.DeepEqual(got, want) {
		if len(got) != 0 || len(want) != 0 {
			return fmt.Sprintf("components diverged:\ngot:  %v\nwant: %v", got, want)
		}
	}
	return ""
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

// fuzzSigma is paperSigma plus the shapes of §7.1's Σ it lacks, each of
// which makes two embedded FDs share one LHS index: a constant-only group
// beside a variable one on the same X ([AC] → CT by constants, [AC] → ST by
// a wildcard row), a group whose A lies in its own X ([CT,ST] → ST), and two
// X that differ only in the order they are written in (ϕ4's [CT,STR] and
// [STR,CT], once with ϕ4's own A and once with another). The paper's Σ has
// no LHS wider than two attributes; [CT,AC,STR] → zip, with a row of three
// constants and a wildcard row, keys an LHS index and a mask bucket by
// three ids.
func fuzzSigma(s *relation.Schema) []*Normal {
	return NormalizeAll([]*CFD{
		phi1(s), phi2(s), phi3(s), phi4(s),
		MustNew("phi6", s, []string{"AC"}, []string{"CT"},
			[]Cell{C("212"), C("NYC")},
			[]Cell{C("215"), C("PHI")}),
		MustNew("phi8", s, []string{"AC"}, []string{"ST"},
			[]Cell{W, W},
			[]Cell{C("610"), C("PA")}),
		MustNew("phi9", s, []string{"CT", "ST"}, []string{"ST"},
			[]Cell{W, W, W},
			[]Cell{C("NYC"), W, C("NY")}),
		MustNew("phi10", s, []string{"STR", "CT"}, []string{"zip", "PR"},
			[]Cell{C("Walnut"), C("PHI"), C("19014"), W},
			[]Cell{W, W, W, W}),
		MustNew("phi11", s, []string{"CT", "AC", "STR"}, []string{"zip"},
			[]Cell{C("PHI"), C("610"), C("Walnut"), C("19014")},
			[]Cell{W, W, W, W}),
	})
}

// fuzzPools are small value pools per attribute: they keep collisions (and
// hence violations, bucket moves, pattern matches) frequent.
var fuzzPools = [][]string{
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

// runVioStoreOps reads data as a mutation sequence over fuzzPools — how
// many tuples the relation holds before the store is built, then inserts
// (most of them counted through VioCounts first), deletes and cell updates
// (of X and of A, to values and to null, in clean and dirty buckets alike)
// until the bytes run out — and asserts after
// every step that the maintained state is bit-identical to the every-bucket
// reference scan's (Detect, the cursor, VioAll, the totals, Components), that
// every tally of every shared LHS index equals a recount, and that
// VioCounts and Group.VioCount agree with the bucket walk they replaced.
// It returns the store's rescan counter and, summed over the checked
// states and the variable-RHS groups, how many LHS buckets held a
// violation and how many none.
func runVioStoreOps(t *testing.T, data []byte) (rescans, dirty, clean int) {
	t.Helper()
	schema := orderSchema()
	sigma := fuzzSigma(schema)
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	val := func(a int) relation.Value {
		b := next()
		if b%8 == 0 {
			return relation.NullValue
		}
		p := fuzzPools[a]
		return relation.S(p[b/8%len(p)])
	}
	row := func() *relation.Tuple {
		vals := make([]relation.Value, schema.Arity())
		for a := range vals {
			vals[a] = val(a)
		}
		return &relation.Tuple{Vals: vals}
	}
	seed := int64(len(data))
	rel := relation.New(schema)
	for n := next() % 16; n > 0; n-- {
		rel.MustInsert(row())
	}
	s := NewVioStore(rel, sigma)
	defer s.Close()
	// An LHS with constant-only groups alone indexes lazily; build those
	// too, so the store maintains every kind.
	for _, g := range s.d.groups {
		s.d.index(g)
	}
	rng := rand.New(rand.NewSource(seed))
	check := func(tag string) {
		t.Helper()
		for gi, g := range s.d.groups {
			if g.hasVar {
				n := len(s.state[gi].buckets)
				dirty += n
				clean += s.d.index(g).Len() - n
			}
		}
		checkStoreEquivalence(t, tag, s, rel, sigma)
		checkCursor(t, tag, s)
		checkCountedIndexes(t, tag, s.d, rng)
	}
	check("seeded")
	var counts []int
	for step := 0; len(data) > 0; step++ {
		op := next()
		ts := rel.Tuples()
		switch {
		case op%10 < 3 || len(ts) == 0:
			tu := row()
			if op%4 != 0 {
				// As TUPLERESOLVE sends an arrival: probed, counted through the
				// store — which notes it when clean — and inserted; with a
				// constant no dictionary has seen, or changed after the count.
				if op%4 == 2 {
					tu.Vals[next()%schema.Arity()] = relation.S(fmt.Sprintf("new%d", step))
				}
				tu = tu.Probe(rel.Dict())
				counts = s.VioCounts(tu, counts)
				if op%4 == 3 {
					a := next() % schema.Arity()
					tu.SetAt(a, rel.Dict().Resolve(val(a)))
				}
			}
			rel.MustInsert(tu)
		case op%10 < 5:
			rel.Delete(ts[next()%len(ts)].ID)
		default:
			tu := ts[next()%len(ts)]
			a := next() % schema.Arity()
			if _, err := rel.Set(tu.ID, a, val(a)); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("step %d", step))
	}
	return s.Rescans(), dirty, clean
}

// TestVioStoreFuzzEquivalence drives runVioStoreOps with random mutation
// sequences.
func TestVioStoreFuzzEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			data := make([]byte, 600)
			rand.New(rand.NewSource(seed)).Read(data)
			if rescans, dirty, clean := runVioStoreOps(t, data); rescans == 0 || dirty == 0 || clean == 0 {
				t.Errorf("%d bucket rescans; %d dirty and %d clean buckets checked: the stream should leave both behind", rescans, dirty, clean)
			}
		})
	}
}

// FuzzVioStoreOps is TestVioStoreFuzzEquivalence with the fuzzer choosing
// the mutation sequence.
func FuzzVioStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 9, 9, 9, 17, 9, 9, 9, 9, 9, 9, 9, 9, 17, 9, 9, 17, 9, 9, 9, 9, 9, 9, 25, 9, 9, 9, 9, 9, 4, 0, 7, 1, 6, 17})
	seeded := make([]byte, 300)
	rand.New(rand.NewSource(24)).Read(seeded)
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1000 {
			t.Skip("long enough")
		}
		runVioStoreOps(t, data)
	})
}

// TestVioStoreBucketNumberReuse: violation counts are filed under bucket
// numbers, and an LHS index hands the number of a bucket that emptied to
// the next new key. Deleting the last member of a bucket that held a
// constant-row violation must drop the count with it, so that the tuple
// whose key takes the freed number inherits nothing — not in Detect, not
// in the cursor, not in vio(t).
func TestVioStoreBucketNumberReuse(t *testing.T) {
	rel := relation.New(orderSchema())
	sigma := fuzzSigma(rel.Schema())
	var rule *Normal // ϕ8's (610 ‖ PA), a constant row of the variable-RHS group [AC] → ST
	for _, n := range sigma {
		if strings.HasPrefix(n.Name, "phi8") && n.ConstantRHS() {
			rule = n
		}
	}
	clean, _ := rel.InsertRow("a12", "J. Denver", "7.94", "215", "3345677", "Canel", "PHI", "PA", "19014")
	s := NewVioStore(rel, sigma)
	defer s.Close()
	if !s.Satisfied() {
		t.Fatalf("the base is dirty: %v", s.Detect())
	}
	for _, g := range s.d.groups {
		s.d.index(g) // the constant-only LHS too, for checkCountedIndexes
	}
	gi := slices.IndexFunc(s.d.groups, func(g *groupPlan) bool { return g.a == rule.A && slices.Equal(g.x, rule.X) })
	g, st := s.d.groups[gi], &s.state[gi]
	ix := s.d.index(g)
	// Alone in its [AC] bucket with the wrong state: the violation is filed
	// under that bucket's number.
	dirtyRow := []string{"a23", "H. Porter", "17.99", "610", "8983490", "Walnut", "PHI", "NY", "19014"}
	dirty, _ := rel.InsertRow(dirtyRow...)
	b := ix.BucketOf(dirty)
	if st.buckets[b] != 1 || !slices.Contains(s.Detect(), Violation{T: dirty.ID, N: rule}) {
		t.Fatalf("the fixture files no violation of %s under bucket %d: %v", rule.Name, b, s.Detect())
	}
	rel.Delete(dirty.ID)
	checkStoreEquivalence(t, "after the delete", s, rel, sigma)
	// A clean tuple under a key no bucket has: it takes the freed number.
	fresh, _ := rel.InsertRow("a89", "Snow White", "18.99", "415", "5674322", "Broad", "CHI", "IL", "60614")
	if got := ix.BucketOf(fresh); got != b {
		t.Fatalf("the new key took bucket %d, not the freed %d; the case exercises nothing", got, b)
	}
	checkStoreEquivalence(t, "after the reuse", s, rel, sigma)
	checkCursor(t, "after the reuse", s)
	if n := s.VioCount(fresh.ID) + s.VioCount(clean.ID) + s.TotalViolations(); n != 0 {
		t.Fatalf("the tuple in the reused bucket inherited violations: %v", s.Detect())
	}
	// The same through an update that moves the last member out.
	moved, _ := rel.InsertRow(dirtyRow...)
	b = ix.BucketOf(moved)
	if st.buckets[b] == 0 {
		t.Fatalf("no violation filed under bucket %d", b)
	}
	if _, err := rel.Set(moved.ID, 3, relation.S("215")); err != nil { // AC: it joins the clean tuple's bucket
		t.Fatal(err)
	}
	checkStoreEquivalence(t, "after the move", s, rel, sigma)
	other, _ := rel.InsertRow("a77", "J. Denver", "7.94", "312", "8983490", "Canel", "CHI", "IL", "60614")
	if got := ix.BucketOf(other); got != b {
		t.Fatalf("the new key took bucket %d, not the freed %d", got, b)
	}
	if st.buckets[b] != 0 || s.VioCount(other.ID) != 0 {
		t.Fatalf("the tuple in the reused bucket inherited violations: %v", s.Detect())
	}
	checkStoreEquivalence(t, "after the second reuse", s, rel, sigma)
	checkCursor(t, "after the second reuse", s)
	checkCountedIndexes(t, "after the second reuse", s.d, rand.New(rand.NewSource(1)))
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

// TestVioStoreComponentStateDrains checks Components through a drain to
// zero violations and a re-entry: a drained store has no components, and
// violations entering again give the canonical partition.
func TestVioStoreComponentStateDrains(t *testing.T) {
	rel := paperData(t)
	sigma := paperSigma(rel.Schema())
	s := NewVioStore(rel, sigma)
	defer s.Close()
	if s.Satisfied() {
		t.Fatal("paper data should start dirty")
	}

	// Drain to zero by deleting every violating tuple.
	for !s.Satisfied() {
		var victim relation.TupleID
		for id := range s.VioAll() {
			victim = id
			break
		}
		rel.Delete(victim)
	}
	if got := s.Components(); len(got) != 0 {
		t.Fatalf("drained store has %d components", len(got))
	}

	// Violations re-entering give canonical components again.
	if _, err := rel.InsertRow("a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "CHI", "IL", "19014"); err != nil {
		t.Fatal(err)
	}
	if s.Satisfied() {
		t.Fatal("inserted tuple should violate")
	}
	if got, want := s.Components(), referenceComponents(s.Detect()); !reflect.DeepEqual(got, want) {
		t.Fatalf("components after re-entry = %v, want %v", got, want)
	}
}

// TestVioStoreMaintenanceFlatInBucketSize: the store keeps a dirty bucket's
// count, not its violation list, so an Insert, a Set and a Delete of a
// member allocate as much in a bucket of 10 mutually violating tuples as in
// one of 1 000, and every answer still equals the reference scan's after
// each kind of op. (A store that re-derived the bucket's list on every
// delta allocated in proportion to it.)
func TestVioStoreMaintenanceFlatInBucketSize(t *testing.T) {
	s := relation.MustSchema("r", "k", "v")
	fd, err := FD("fd", s, []string{"k"}, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	sigma := fd.Normalize()
	const runs = 50
	measure := func(size int) [3]float64 {
		r := relation.New(s)
		for i := 0; i < size; i++ {
			v := "v0"
			if i == 0 {
				v = "v1" // the member every other one disagrees with
			}
			r.MustInsert(relation.NewTuple(0, "k", v))
		}
		st := NewVioStore(r, sigma)
		defer st.Close()
		if got, want := st.TotalViolations(), 2*(size-1); got != want {
			t.Fatalf("a bucket of %d holds %d violations, want %d", size, got, want)
		}
		var out [3]float64
		var added []relation.TupleID
		out[0] = testing.AllocsPerRun(runs, func() {
			tu := relation.NewTuple(0, "k", "v0")
			r.MustInsert(tu)
			added = append(added, tu.ID)
		})
		checkStoreEquivalence(t, fmt.Sprintf("size %d after inserts", size), st, r, sigma)
		vals := []relation.Value{relation.S("v1"), relation.S("v0")}
		i := 0
		out[1] = testing.AllocsPerRun(runs, func() {
			if _, err := r.Set(added[0], 1, vals[i%2]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		checkStoreEquivalence(t, fmt.Sprintf("size %d after sets", size), st, r, sigma)
		out[2] = testing.AllocsPerRun(runs, func() {
			r.Delete(added[len(added)-1])
			added = added[:len(added)-1]
		})
		checkStoreEquivalence(t, fmt.Sprintf("size %d after deletes", size), st, r, sigma)
		return out
	}
	small, large := measure(10), measure(1000)
	for k, op := range []string{"Insert", "Set", "Delete"} {
		if small[k] != large[k] {
			t.Errorf("%s allocates %.0f times in a bucket of 10, %.0f in one of 1 000", op, small[k], large[k])
		}
	}
}
