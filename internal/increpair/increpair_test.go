package increpair

import (
	"math/rand"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

func orderSchema() *relation.Schema {
	return relation.MustSchema("order",
		"id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip")
}

// cleanPaperData is the Fig. 1 database after the Example 1.1 repair:
// t3/t4 carry (NYC, NY). It satisfies all four constraints.
func cleanPaperData(t testing.TB) *relation.Relation {
	t.Helper()
	r := relation.New(orderSchema())
	rows := [][]string{
		{"a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "PHI", "PA", "19014"},
		{"a23", "H. Porter", "17.99", "610", "3456789", "Spruce", "PHI", "PA", "19014"},
		{"a12", "J. Denver", "7.94", "212", "3345677", "Canel", "NYC", "NY", "10012"},
		{"a89", "Snow White", "18.99", "212", "5674322", "Broad", "NYC", "NY", "10012"},
	}
	for _, row := range rows {
		if _, err := r.InsertRow(row...); err != nil {
			t.Fatal(err)
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

// t5 is the insertion of Example 1.1: AC=215 conflicts with CT,ST =
// (NYC, NY) under ϕ1, while zip=10012 pins (NYC, NY) under ϕ2.
func t5() *relation.Tuple {
	return relation.NewTuple(0,
		"a45", "B. Good", "3.99", "215", "8983490", "Walnut", "NYC", "NY", "10012")
}

// TestExample51KTwo reproduces the k = 2 outcome of Example 5.1: with
// only {CT, ST} changeable at once, no constant pair satisfies both ϕ1
// and ϕ2, so the repair is (null, null).
func TestExample51KTwo(t *testing.T) {
	d := cleanPaperData(t)
	s := d.Schema()
	sigma := cfd.NormalizeAll(paperCFDs(s))
	res, err := Incremental(d, []*relation.Tuple{t5()}, sigma, &Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("incremental repair must satisfy sigma")
	}
	rt := res.Inserted[0]
	ct, st := s.MustIndex("CT"), s.MustIndex("ST")
	if !rt.Vals[ct].Null || !rt.Vals[st].Null {
		t.Errorf("k=2 repair of t5: CT=%v ST=%v, want null/null (Example 5.1)", rt.Vals[ct], rt.Vals[st])
	}
	// Clean D must be untouched.
	if d.Size() != 4 {
		t.Error("input database must not change")
	}
}

// TestExample51KThree checks the k = 3 claim of Example 5.1: unlike k=2,
// a repair with certain (non-null) values exists and is found. The paper
// illustrates C = {CT, ST, zip} with v̂ = (PHI, PA, 19014); Example 1.1
// notes the alternative "correct edit could be letting t5[AC] = 212".
// Greedy tie-breaking legitimately reaches either; we accept both but no
// nulls.
func TestExample51KThree(t *testing.T) {
	d := cleanPaperData(t)
	s := d.Schema()
	sigma := cfd.NormalizeAll(paperCFDs(s))
	res, err := Incremental(d, []*relation.Tuple{t5()}, sigma, &Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("incremental repair must satisfy sigma")
	}
	rt := res.Inserted[0]
	for a, v := range rt.Vals {
		if v.Null {
			t.Errorf("k=3 repair of t5 must use certain values; attribute %s is null", s.Attr(a))
		}
	}
	ct, st, zip, ac := s.MustIndex("CT"), s.MustIndex("ST"), s.MustIndex("zip"), s.MustIndex("AC")
	paperFix := rt.Vals[ct].Str == "PHI" && rt.Vals[st].Str == "PA" && rt.Vals[zip].Str == "19014"
	altFix := rt.Vals[ac].Str == "212" && rt.Vals[ct].Str == "NYC" && rt.Vals[st].Str == "NY" && rt.Vals[zip].Str == "10012"
	if !paperFix && !altFix {
		t.Errorf("k=3 repair of t5: AC=%v CT=%v ST=%v zip=%v, want the Example 5.1 fix or the Example 1.1 AC=212 fix",
			rt.Vals[ac], rt.Vals[ct], rt.Vals[st], rt.Vals[zip])
	}
}

// TestCleanInsertPassesThrough: a consistent insertion is untouched.
func TestCleanInsertPassesThrough(t *testing.T) {
	d := cleanPaperData(t)
	s := d.Schema()
	sigma := cfd.NormalizeAll(paperCFDs(s))
	good := relation.NewTuple(0,
		"a77", "K. Reed", "5.00", "610", "9999999", "Pine", "PHI", "PA", "19014")
	res, err := Incremental(d, []*relation.Tuple{good}, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changes != 0 || res.Cost != 0 {
		t.Errorf("clean insert changed: changes=%d cost=%v", res.Changes, res.Cost)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair must satisfy sigma")
	}
	if res.Repair.Size() != 5 {
		t.Errorf("repair size = %d, want 5", res.Repair.Size())
	}
}

// TestTypoFixedByConstantCFD: a typo'd city on an otherwise matching
// tuple is corrected to the pattern constant, not nulled: the pattern
// constant is a zero-violation candidate and the similarity search offers
// the original value too.
func TestTypoFixedByConstantCFD(t *testing.T) {
	d := cleanPaperData(t)
	s := d.Schema()
	sigma := cfd.NormalizeAll(paperCFDs(s))
	bad := relation.NewTuple(0,
		"a78", "L. Crane", "6.00", "610", "1111111", "Oak", "PHX", "PA", "19014")
	res, err := Incremental(d, []*relation.Tuple{bad}, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Inserted[0]
	ct := s.MustIndex("CT")
	if rt.Vals[ct].Str != "PHI" {
		t.Errorf("CT repaired to %v, want PHI", rt.Vals[ct])
	}
	if res.Changes != 1 {
		t.Errorf("Changes = %d, want 1", res.Changes)
	}
}

// TestVariableRHSDonor: an insert conflicting with the clean database on
// an FD takes the clean side's value (the LHS-index donor).
func TestVariableRHSDonor(t *testing.T) {
	s := relation.MustSchema("r", "k", "v")
	d := relation.New(s)
	d.InsertRow("key1", "value1")
	d.InsertRow("key2", "value2")
	fd, _ := cfd.FD("fd", s, []string{"k"}, []string{"v"})
	sigma := fd.Normalize()
	bad := relation.NewTuple(0, "key1", "valuX")
	res, err := Incremental(d, []*relation.Tuple{bad}, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Inserted[0]
	if rt.Vals[1].Str != "value1" {
		t.Errorf("v repaired to %v, want value1 (donor from clean D)", rt.Vals[1])
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair must satisfy sigma")
	}
}

// TestDirtyInputRejected: Incremental refuses a dirty base unless asked.
func TestDirtyInputRejected(t *testing.T) {
	s := relation.MustSchema("r", "k", "v")
	d := relation.New(s)
	d.InsertRow("key", "a")
	d.InsertRow("key", "b")
	fd, _ := cfd.FD("fd", s, []string{"k"}, []string{"v"})
	sigma := fd.Normalize()
	if _, err := Incremental(d, nil, sigma, nil); err == nil {
		t.Error("dirty base must be rejected")
	}
}

func TestUnsatisfiableSigma(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	d := relation.New(s)
	c1 := cfd.MustNew("c1", s, []string{"a"}, []string{"b"}, []cfd.Cell{cfd.W, cfd.C("1")})
	c2 := cfd.MustNew("c2", s, []string{"a"}, []string{"b"}, []cfd.Cell{cfd.W, cfd.C("2")})
	if _, err := Incremental(d, nil, cfd.NormalizeAll([]*cfd.CFD{c1, c2}), nil); err == nil {
		t.Error("unsatisfiable sigma must be rejected")
	}
}

// TestOrderings: all three variants produce consistent repairs on the
// same batch; V processes low-violation tuples first, W heavy tuples
// first.
func TestOrderings(t *testing.T) {
	d := cleanPaperData(t)
	s := d.Schema()
	sigma := cfd.NormalizeAll(paperCFDs(s))
	mkDelta := func() []*relation.Tuple {
		a := t5() // violating
		b := relation.NewTuple(0,
			"a77", "K. Reed", "5.00", "610", "9999999", "Pine", "PHI", "PA", "19014") // clean
		b.SetWeight(0, 1)
		for i := range b.Vals {
			b.SetWeight(i, 0.9)
		}
		for i := range a.Vals {
			a.SetWeight(i, 0.2)
		}
		return []*relation.Tuple{a, b}
	}
	for _, ord := range []Ordering{Linear, ByViolations, ByWeight} {
		res, err := Incremental(d, mkDelta(), sigma, &Options{Ordering: ord})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if !cfd.Satisfies(res.Repair, sigma) {
			t.Errorf("%v: repair must satisfy sigma", ord)
		}
		if len(res.Inserted) != 2 {
			t.Fatalf("%v: inserted %d", ord, len(res.Inserted))
		}
		switch ord {
		case ByViolations, ByWeight:
			// The clean/heavy tuple (id a77) must be processed first.
			if res.Originals[0].Vals[0].Str != "a77" {
				t.Errorf("%v: processed %v first, want a77", ord, res.Originals[0].Vals[0])
			}
		}
	}
}

// TestBatchModeRepair exercises §5.3: clean a dirty database by
// extracting its violation-free core and reinserting the rest.
func TestBatchModeRepair(t *testing.T) {
	r := relation.New(orderSchema())
	rows := [][]string{
		{"a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "PHI", "PA", "19014"},
		{"a23", "H. Porter", "17.99", "610", "3456789", "Spruce", "PHI", "PA", "19014"},
		{"a12", "J. Denver", "7.94", "212", "3345677", "Canel", "PHI", "PA", "10012"},   // dirty
		{"a89", "Snow White", "18.99", "212", "5674322", "Broad", "PHI", "PA", "10012"}, // dirty
	}
	for _, row := range rows {
		if _, err := r.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	sigma := cfd.NormalizeAll(paperCFDs(r.Schema()))
	res, err := Repair(r, sigma, &Options{Ordering: ByViolations})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("batch-mode repair must satisfy sigma")
	}
	if res.Repair.Size() != 4 {
		t.Errorf("repair size = %d, want 4", res.Repair.Size())
	}
	// t3/t4 should have been fixed toward (NYC, NY): their zip 10012 and
	// AC 212 both pin the city.
	s := r.Schema()
	ct := s.MustIndex("CT")
	for _, i := range []int{2, 3} {
		id := r.Tuples()[i].ID
		got := res.Repair.Tuple(id)
		if got == nil {
			t.Fatalf("tuple %d missing from repair", id)
		}
		if got.Vals[ct].Str != "NYC" && !got.Vals[ct].Null {
			t.Errorf("tuple %d CT = %v, want NYC (or null)", id, got.Vals[ct])
		}
	}
}

// TestBatchModeRandom: batch-mode repair always terminates on random
// dirty databases and satisfies sigma.
func TestBatchModeRandom(t *testing.T) {
	s := relation.MustSchema("r", "a", "b", "c")
	fd1, _ := cfd.FD("fd1", s, []string{"a"}, []string{"b"})
	phi := cfd.MustNew("phi", s, []string{"b"}, []string{"c"},
		[]cfd.Cell{cfd.C("b0"), cfd.C("c0")},
		[]cfd.Cell{cfd.C("b1"), cfd.C("c1")})
	sigma := cfd.NormalizeAll([]*cfd.CFD{fd1, phi})
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := relation.New(s)
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			d.InsertRow(
				"a"+string(rune('0'+rng.Intn(4))),
				"b"+string(rune('0'+rng.Intn(3))),
				"c"+string(rune('0'+rng.Intn(3))))
		}
		res, err := Repair(d, sigma, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !cfd.Satisfies(res.Repair, sigma) {
			t.Fatalf("seed %d: repair does not satisfy sigma", seed)
		}
		if res.Repair.Size() != d.Size() {
			t.Fatalf("seed %d: size changed %d -> %d", seed, d.Size(), res.Repair.Size())
		}
	}
}

func TestArityMismatch(t *testing.T) {
	d := cleanPaperData(t)
	sigma := cfd.NormalizeAll(paperCFDs(d.Schema()))
	short := relation.NewTuple(0, "only", "three", "vals")
	if _, err := Incremental(d, []*relation.Tuple{short}, sigma, nil); err == nil {
		t.Error("arity mismatch must be rejected")
	}
}

func TestOrderingString(t *testing.T) {
	if Linear.String() != "L-IncRepair" || ByViolations.String() != "V-IncRepair" || ByWeight.String() != "W-IncRepair" {
		t.Error("Ordering.String wrong")
	}
	if Ordering(9).String() == "" {
		t.Error("unknown ordering must render")
	}
}

func TestOptionDefaults(t *testing.T) {
	var o *Options
	w := o.withDefaults()
	if w.K != 2 || w.NearestK != 4 || w.CostModel == nil {
		t.Errorf("defaults wrong: %+v", w)
	}
}
