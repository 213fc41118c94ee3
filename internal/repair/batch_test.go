package repair

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cfdclean/internal/cfd"
	"cfdclean/internal/cost"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

func orderSchema() *relation.Schema {
	return relation.MustSchema("order",
		"id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip")
}

// paperData loads Fig. 1(a) including its weights.
func paperData(t testing.TB) *relation.Relation {
	t.Helper()
	r := relation.New(orderSchema())
	rows := [][]string{
		{"a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "PHI", "PA", "19014"},
		{"a23", "H. Porter", "17.99", "610", "3456789", "Spruce", "PHI", "PA", "19014"},
		{"a12", "J. Denver", "7.94", "212", "3345677", "Canel", "PHI", "PA", "10012"},
		{"a89", "Snow White", "18.99", "212", "5674322", "Broad", "PHI", "PA", "10012"},
	}
	weights := [][]float64{
		{1, 0.5, 0.5, 0.5, 0.5, 0.8, 0.8, 0.8, 0.8},
		{1, 0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 0.6, 0.6},
		{1, 0.9, 0.9, 0.9, 0.9, 0.6, 0.1, 0.1, 0.8},
		{1, 0.6, 0.5, 0.9, 0.9, 0.1, 0.6, 0.6, 0.9},
	}
	for i, row := range rows {
		tp, err := r.InsertRow(row...)
		if err != nil {
			t.Fatal(err)
		}
		for a, w := range weights[i] {
			tp.SetWeight(a, w)
		}
	}
	return r
}

func paperCFDs(s *relation.Schema) []*cfd.CFD {
	phi1 := cfd.MustNew("phi1", s, []string{"AC", "PN"}, []string{"STR", "CT", "ST"},
		[]cfd.Cell{cfd.C("212"), cfd.W, cfd.W, cfd.C("NYC"), cfd.C("NY")},
		[]cfd.Cell{cfd.C("610"), cfd.W, cfd.W, cfd.C("PHI"), cfd.C("PA")},
		[]cfd.Cell{cfd.C("215"), cfd.W, cfd.W, cfd.C("PHI"), cfd.C("PA")},
	)
	phi2 := cfd.MustNew("phi2", s, []string{"zip"}, []string{"CT", "ST"},
		[]cfd.Cell{cfd.C("10012"), cfd.C("NYC"), cfd.C("NY")},
		[]cfd.Cell{cfd.C("19014"), cfd.C("PHI"), cfd.C("PA")},
	)
	phi3, _ := cfd.FD("phi3", s, []string{"id"}, []string{"name", "PR"})
	phi4, _ := cfd.FD("phi4", s, []string{"CT", "STR"}, []string{"zip"})
	return []*cfd.CFD{phi1, phi2, phi3, phi4}
}

// TestBatchPaperExample repairs the Fig. 1 database: t3 and t4 violate
// ϕ1 and ϕ2; the low weights on their CT/ST attributes make "set CT,ST to
// (NYC, NY)" the cheap fix, exactly the repair the paper proposes in
// Example 1.1.
func TestBatchPaperExample(t *testing.T) {
	d := paperData(t)
	s := d.Schema()
	sigma := cfd.NormalizeAll(paperCFDs(s))
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair must satisfy sigma")
	}
	ct, st := s.MustIndex("CT"), s.MustIndex("ST")
	for _, i := range []int{2, 3} {
		id := d.Tuples()[i].ID
		got := res.Repair.Tuple(id)
		if got.Vals[ct].Str != "NYC" || got.Vals[st].Str != "NY" {
			t.Errorf("tuple %d repaired to CT=%v ST=%v, want NYC/NY", id, got.Vals[ct], got.Vals[st])
		}
	}
	// The paper's repair touches exactly CT and ST of t3 and t4.
	if res.Changes != 4 {
		t.Errorf("Changes = %d, want 4", res.Changes)
	}
	if res.Cost <= 0 {
		t.Error("repair must have positive cost")
	}
	// Input untouched.
	if d.Tuples()[2].Vals[ct].Str != "PHI" {
		t.Error("Batch must not modify its input")
	}
}

// TestBatchCyclicCFDs reproduces the t5 scenario of Examples 1.1/4.1:
// with cyclic CFDs a RHS-only strategy oscillates, but BATCHREPAIR's
// equivalence classes terminate and produce a consistent repair.
func TestBatchCyclicCFDs(t *testing.T) {
	d := paperData(t)
	s := d.Schema()
	ct, st := s.MustIndex("CT"), s.MustIndex("ST")
	// Clean t3/t4 per the paper's repair first.
	for _, i := range []int{2, 3} {
		id := d.Tuples()[i].ID
		d.Set(id, ct, relation.S("NYC"))
		d.Set(id, st, relation.S("NY"))
	}
	// Insert the problematic t5.
	t5, err := d.InsertRow("a45", "B. Good", "3.99", "215", "8983490", "Walnut", "NYC", "NY", "10012")
	if err != nil {
		t.Fatal(err)
	}
	for a, w := range []float64{1, 0.9, 0.9, 0.9, 0.9, 0.9, 0.5, 0.5, 0.5} {
		t5.SetWeight(a, w)
	}
	sigma := cfd.NormalizeAll(paperCFDs(s))
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair of cyclic CFDs must satisfy sigma")
	}
	if res.Resolutions == 0 {
		t.Error("expected at least one resolution")
	}
}

func TestBatchCleanInputIsNoop(t *testing.T) {
	d := paperData(t)
	s := d.Schema()
	ct, st := s.MustIndex("CT"), s.MustIndex("ST")
	for _, i := range []int{2, 3} {
		id := d.Tuples()[i].ID
		d.Set(id, ct, relation.S("NYC"))
		d.Set(id, st, relation.S("NY"))
	}
	sigma := cfd.NormalizeAll(paperCFDs(s))
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changes != 0 || res.Cost != 0 {
		t.Errorf("clean input must not change: changes=%d cost=%v", res.Changes, res.Cost)
	}
}

func TestBatchUnsatisfiableSigma(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	d := relation.New(s)
	d.InsertRow("x", "y")
	c1 := cfd.MustNew("c1", s, []string{"a"}, []string{"b"}, []cfd.Cell{cfd.W, cfd.C("1")})
	c2 := cfd.MustNew("c2", s, []string{"a"}, []string{"b"}, []cfd.Cell{cfd.W, cfd.C("2")})
	if _, err := Batch(d, cfd.NormalizeAll([]*cfd.CFD{c1, c2}), nil); err == nil {
		t.Error("unsatisfiable sigma must be rejected")
	}
}

// TestBatchCase1_1 exercises the simplest path: a constant-RHS CFD fixes
// a typo'd city directly.
func TestBatchCase1_1(t *testing.T) {
	s := relation.MustSchema("r", "zip", "CT")
	d := relation.New(s)
	d.InsertRow("10012", "NYk") // typo
	d.InsertRow("10012", "NYC")
	φ := cfd.MustNew("zipct", s, []string{"zip"}, []string{"CT"},
		[]cfd.Cell{cfd.C("10012"), cfd.C("NYC")})
	sigma := φ.Normalize()
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Repair.Tuples()[0].Vals[1].Str; got != "NYC" {
		t.Errorf("repaired CT = %q, want NYC", got)
	}
	if res.Changes != 1 {
		t.Errorf("Changes = %d, want 1", res.Changes)
	}
}

// TestBatchCase1_2 forces conflicting constant targets so the repair must
// edit the LHS: tuple has zip=10012 (forcing NYC) and AC=215 (forcing
// PHI). One of the LHS attributes must change; FINDV pulls the
// semantically related zip 19014 from the sibling tuple sharing CT=PHI.
func TestBatchCase1_2(t *testing.T) {
	s := relation.MustSchema("r", "AC", "zip", "CT")
	d := relation.New(s)
	conflicted, _ := d.InsertRow("215", "10012", "PHI")
	d.InsertRow("215", "19014", "PHI") // donor of the related zip value
	phiZip := cfd.MustNew("zipct", s, []string{"zip"}, []string{"CT"},
		[]cfd.Cell{cfd.C("10012"), cfd.C("NYC")},
		[]cfd.Cell{cfd.C("19014"), cfd.C("PHI")})
	phiAC := cfd.MustNew("acct", s, []string{"AC"}, []string{"CT"},
		[]cfd.Cell{cfd.C("215"), cfd.C("PHI")})
	sigma := cfd.NormalizeAll([]*cfd.CFD{phiZip, phiAC})
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair must satisfy sigma")
	}
	got := res.Repair.Tuple(conflicted.ID)
	// The consistent outcomes: zip changed away from 10012 (ideally to
	// 19014 via FINDV), or AC changed away from 215 with CT=NYC. With
	// unit weights, changing zip to the donor value is the cheap local
	// fix once CT=PHI is pinned by the AC rule.
	if got.Vals[1].Str == "10012" && got.Vals[0].Str == "215" {
		t.Errorf("conflict not resolved: %v", got)
	}
}

// TestBatchCase2Merge exercises variable-RHS repair: two tuples agree on
// the LHS but differ on the RHS; the class merge plus instantiation picks
// the value with the smaller change cost (the heavier-weighted side wins).
func TestBatchCase2Merge(t *testing.T) {
	s := relation.MustSchema("r", "k", "v")
	d := relation.New(s)
	t1, _ := d.InsertRow("key", "alpha")
	t2, _ := d.InsertRow("key", "alphx")
	t1.SetWeight(1, 0.9) // trust t1's value
	t2.SetWeight(1, 0.1)
	fd, _ := cfd.FD("fd", s, []string{"k"}, []string{"v"})
	sigma := fd.Normalize()
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair must satisfy sigma")
	}
	v1 := res.Repair.Tuple(t1.ID).Vals[1].Str
	v2 := res.Repair.Tuple(t2.ID).Vals[1].Str
	if v1 != v2 {
		t.Fatalf("values not reconciled: %q vs %q", v1, v2)
	}
	if v1 != "alpha" {
		t.Errorf("reconciled to %q, want the trusted value alpha", v1)
	}
	if res.InstantiationRounds < 1 {
		t.Error("case 2 repair needs an instantiation round")
	}
}

// TestBatchThreeWayMerge checks that larger conflicting groups reconcile
// to a single value chosen by cost (majority with equal weights).
func TestBatchThreeWayMerge(t *testing.T) {
	s := relation.MustSchema("r", "k", "v")
	d := relation.New(s)
	d.InsertRow("key", "popular")
	d.InsertRow("key", "popular")
	d.InsertRow("key", "rare")
	fd, _ := cfd.FD("fd", s, []string{"k"}, []string{"v"})
	sigma := fd.Normalize()
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair must satisfy sigma")
	}
	for _, tp := range res.Repair.Tuples() {
		if tp.Vals[1].Str != "popular" {
			t.Errorf("tuple %d = %q, want popular (cheapest instantiation)", tp.ID, tp.Vals[1].Str)
		}
	}
}

// TestBatchRandomFDsAlwaysRepairs is the integration property behind
// Theorem 4.2: on random databases with random noise, Batch terminates
// and its output satisfies sigma.
func TestBatchRandomFDsAlwaysRepairs(t *testing.T) {
	s := relation.MustSchema("r", "a", "b", "c")
	fd1, _ := cfd.FD("fd1", s, []string{"a"}, []string{"b"})
	phi := cfd.MustNew("phi", s, []string{"b"}, []string{"c"},
		[]cfd.Cell{cfd.C("b0"), cfd.C("c0")},
		[]cfd.Cell{cfd.C("b1"), cfd.C("c1")})
	sigma := cfd.NormalizeAll([]*cfd.CFD{fd1, phi})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := relation.New(s)
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			a := "a" + itoa(rng.Intn(4))
			b := "b" + itoa(rng.Intn(3))
			c := "c" + itoa(rng.Intn(3))
			d.InsertRow(a, b, c)
		}
		res, err := Batch(d, sigma, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return cfd.Satisfies(res.Repair, sigma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// TestBatchUnweighted verifies §3.2 remark 1: without weight information
// the algorithm still produces a consistent repair.
func TestBatchUnweighted(t *testing.T) {
	s := relation.MustSchema("r", "zip", "CT", "ST")
	d := relation.New(s)
	d.InsertRow("10012", "PHI", "PA")
	d.InsertRow("10012", "NYC", "NY")
	φ := cfd.MustNew("c", s, []string{"zip"}, []string{"CT", "ST"},
		[]cfd.Cell{cfd.C("10012"), cfd.C("NYC"), cfd.C("NY")})
	sigma := φ.Normalize()
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("unweighted repair must satisfy sigma")
	}
}

// TestBatchNoDepGraph checks the ablation switch produces a valid repair.
func TestBatchNoDepGraph(t *testing.T) {
	d := paperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	res, err := Batch(d, sigma, &Options{NoDepGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("no-depgraph repair must satisfy sigma")
	}
}

// TestBatchNullFallback: an isolated conflicted tuple with no donor for
// FINDV gets null (the "cannot be made certain" outcome).
func TestBatchNullFallback(t *testing.T) {
	s := relation.MustSchema("r", "AC", "zip", "CT")
	d := relation.New(s)
	conflicted, _ := d.InsertRow("215", "10012", "PHI")
	phiZip := cfd.MustNew("zipct", s, []string{"zip"}, []string{"CT"},
		[]cfd.Cell{cfd.C("10012"), cfd.C("NYC")})
	phiAC := cfd.MustNew("acct", s, []string{"AC"}, []string{"CT"},
		[]cfd.Cell{cfd.C("215"), cfd.C("PHI")})
	sigma := cfd.NormalizeAll([]*cfd.CFD{phiZip, phiAC})
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair must satisfy sigma")
	}
	got := res.Repair.Tuple(conflicted.ID)
	hasNull := false
	for _, v := range got.Vals {
		if v.Null {
			hasNull = true
		}
	}
	if !hasNull {
		// Either an LHS became null, or a consistent constant resolution
		// was found; with no donors, null is the expected outcome on one
		// of AC/zip.
		t.Logf("repair: %v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	if o.withDefaults().CostModel == nil {
		t.Error("nil options must get the default cost model")
	}
	m := cost.Default()
	if (&Options{CostModel: m}).withDefaults().CostModel != m {
		t.Error("an explicit cost model must be kept")
	}
}

// componentFixture builds a database over (K, V, P) under the FD K → V:
// for each entry of sizes, that many tuples share a key and disagree on V
// — one violation-graph component per key — and clean more tuples carry
// keys of their own.
func componentFixture(t testing.TB, sizes []int, clean int) (*relation.Relation, []*cfd.Normal) {
	t.Helper()
	s := relation.MustSchema("r", "K", "V", "P")
	r := relation.New(s)
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			// Two values per component, unevenly split, so the repair has
			// a majority to find.
			v := fmt.Sprintf("v%d-a", c)
			if i%4 == 1 {
				v = fmt.Sprintf("v%d-b%d", c, i)
			}
			r.MustInsert(relation.NewTuple(0, fmt.Sprintf("k%d", c), v, fmt.Sprintf("p%d", i)))
		}
	}
	for i := 0; i < clean; i++ {
		r.MustInsert(relation.NewTuple(0, fmt.Sprintf("c%d", i), "v", "p"))
	}
	fd, err := cfd.FD("fd", s, []string{"K"}, []string{"V"})
	if err != nil {
		t.Fatal(err)
	}
	return r, fd.Normalize()
}

// TestBatchReportsComponents checks that Batch repairs every component of
// the violation graph and reports how many there were and the largest.
func TestBatchReportsComponents(t *testing.T) {
	equal := make([]int, 8)
	for i := range equal {
		equal[i] = 60
	}
	for _, tc := range []struct {
		name  string
		sizes []int
		clean int
	}{
		{"giant-and-crumbs", []int{120, 2, 2, 2, 3, 2}, 170},
		{"equal-components", equal, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, sigma := componentFixture(t, tc.sizes, tc.clean)
			res, err := Batch(d, sigma, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !cfd.Satisfies(res.Repair, sigma) {
				t.Fatal("repair violates sigma")
			}
			if res.Components != len(tc.sizes) || res.LargestComponent != tc.sizes[0] {
				t.Errorf("Components=%d LargestComponent=%d, want %d and %d",
					res.Components, res.LargestComponent, len(tc.sizes), tc.sizes[0])
			}
		})
	}
}

// TestFindVAllocates pins FINDV's allocation budget: on an engine that has
// planned the violation once — support index built, probe and buffers
// grown, distances memoized, the answer kept — neither computing the
// answer again nor taking the kept one allocates.
func TestFindVAllocates(t *testing.T) {
	ds, err := gen.New(gen.Config{Size: 500, NoiseRate: 0.05, ConstShare: 0.5, PatternRows: 600, Weights: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	work := ds.Dirty.Clone()
	o := (*Options)(nil).withDefaults()
	e := newEngine(cfd.Compile(work.Dict(), ds.Sigma).NewVioStore(work), ds.Dirty, o)
	defer e.store.Close()
	calls := 0
	_, groups := e.store.Partition()
	for p, gis := range groups {
		tp := work.Tuples()[p]
		for _, gi := range gis {
			for _, b := range e.groups[gi].X() {
				if _, _, _, ok := e.findV(gi, tp, b); !ok {
					continue
				}
				calls++
				ix := e.supportIndex(gi, b)
				if n := testing.AllocsPerRun(10, func() { e.findVUncached(ix, tp, b) }); n != 0 {
					t.Errorf("findVUncached(group %d, t%d, attr %d) allocates %v times per call", gi, tp.ID, b, n)
				}
				if n := testing.AllocsPerRun(10, func() { e.findV(gi, tp, b) }); n != 0 {
					t.Errorf("findV(group %d, t%d, attr %d), answered from the memo, allocates %v times per call", gi, tp.ID, b, n)
				}
			}
		}
	}
	if calls == 0 {
		t.Fatal("no violation offered FINDV a candidate; the fixture exercises nothing")
	}
}

// TestBatchWorkGrowth bounds how BATCHREPAIR's work per resolution grows
// with the database, by count, not by clock: on §7.1's generator (seed 1,
// 600 pattern rows) from 2 500 to 10 000 tuples, the dirty tuples PICKNEXT
// visits per resolution may grow at most 1.5× and the tally values FINDV
// reads per resolution at most 3×. The bucket members the partner search
// walks are reported, not bounded: the walk past members that carry t's
// own value is the part of the loop still superlinear.
func TestBatchWorkGrowth(t *testing.T) {
	type per struct{ visits, reads float64 }
	run := func(n int) per {
		ds, err := gen.New(gen.Config{Size: n, NoiseRate: 0.05, ConstShare: 0.5, PatternRows: 600, Weights: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Batch(ds.Dirty, ds.Sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, r := res.work, float64(res.Resolutions)
		t.Logf("%d tuples: %d resolutions; per resolution %.1f visits, %.1f FINDV tally reads; %d partner-walk members",
			n, res.Resolutions, float64(w.visits)/r, float64(w.findVReads)/r, w.walked)
		return per{float64(w.visits) / r, float64(w.findVReads) / r}
	}
	small, large := run(2500), run(10000)
	if small.visits == 0 || small.reads == 0 {
		t.Fatal("the small run counted no work; the test exercises nothing")
	}
	if g := large.visits / small.visits; g > 1.5 {
		t.Errorf("PICKNEXT's visits per resolution grew %.2f× from 2 500 to 10 000 tuples, bound 1.5×", g)
	}
	if g := large.reads / small.reads; g > 3 {
		t.Errorf("FINDV's tally reads per resolution grew %.2f× from 2 500 to 10 000 tuples, bound 3×", g)
	}
}
