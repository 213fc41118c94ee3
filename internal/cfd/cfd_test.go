package cfd

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"cfdclean/internal/relation"
)

// orderSchema is the paper's running-example schema (Fig. 1).
func orderSchema() *relation.Schema {
	return relation.MustSchema("order",
		"id", "name", "PR", "AC", "PN", "STR", "CT", "ST", "zip")
}

// paperData loads the four tuples of Fig. 1(a).
func paperData(t testing.TB) *relation.Relation {
	t.Helper()
	r := relation.New(orderSchema())
	rows := [][]string{
		{"a23", "H. Porter", "17.99", "215", "8983490", "Walnut", "PHI", "PA", "19014"},
		{"a23", "H. Porter", "17.99", "610", "3456789", "Spruce", "PHI", "PA", "19014"},
		{"a12", "J. Denver", "7.94", "212", "3345677", "Canel", "PHI", "PA", "10012"},
		{"a89", "Snow White", "18.99", "212", "5674322", "Broad", "PHI", "PA", "10012"},
	}
	for _, row := range rows {
		if _, err := r.InsertRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// phi1 is CFD ϕ1 of Fig. 1(b): [AC,PN] -> [STR,CT,ST] with T1.
func phi1(s *relation.Schema) *CFD {
	return MustNew("phi1", s, []string{"AC", "PN"}, []string{"STR", "CT", "ST"},
		[]Cell{C("212"), W, W, C("NYC"), C("NY")},
		[]Cell{C("610"), W, W, C("PHI"), C("PA")},
		[]Cell{C("215"), W, W, C("PHI"), C("PA")},
	)
}

// phi2 is CFD ϕ2 of Fig. 1(b): [zip] -> [CT,ST] with T2.
func phi2(s *relation.Schema) *CFD {
	return MustNew("phi2", s, []string{"zip"}, []string{"CT", "ST"},
		[]Cell{C("10012"), C("NYC"), C("NY")},
		[]Cell{C("19014"), C("PHI"), C("PA")},
	)
}

// phi3 / phi4 are the standard FDs of Fig. 2 expressed as CFDs.
func phi3(s *relation.Schema) *CFD {
	φ, err := FD("phi3", s, []string{"id"}, []string{"name", "PR"})
	if err != nil {
		panic(err)
	}
	return φ
}

func phi4(s *relation.Schema) *CFD {
	φ, err := FD("phi4", s, []string{"CT", "STR"}, []string{"zip"})
	if err != nil {
		panic(err)
	}
	return φ
}

func TestMatchValue(t *testing.T) {
	if !MatchValue(relation.S("212"), C("212")) {
		t.Error("constant must match itself")
	}
	if MatchValue(relation.S("212"), C("215")) {
		t.Error("distinct constants must not match")
	}
	if !MatchValue(relation.S("anything"), W) {
		t.Error("wildcard must match any constant")
	}
	// §3.1 remark 2: null matches no pattern, not even the wildcard.
	if MatchValue(relation.NullValue, W) {
		t.Error("null must not match the wildcard")
	}
	if MatchValue(relation.NullValue, C("x")) {
		t.Error("null must not match a constant")
	}
}

func TestNewValidation(t *testing.T) {
	s := orderSchema()
	if _, err := New("x", s, nil, []string{"CT"}, []Cell{W}); err == nil {
		t.Error("empty LHS must fail")
	}
	if _, err := New("x", s, []string{"zip"}, []string{"CT"}); err == nil {
		t.Error("empty tableau must fail")
	}
	if _, err := New("x", s, []string{"nope"}, []string{"CT"}, []Cell{W, W}); err == nil {
		t.Error("unknown attribute must fail")
	}
	if _, err := New("x", s, []string{"zip"}, []string{"CT", "CT"}, []Cell{W, W, W}); err == nil {
		t.Error("duplicate RHS attribute must fail")
	}
	if _, err := New("x", s, []string{"zip"}, []string{"CT"}, []Cell{W}); err == nil {
		t.Error("short pattern row must fail")
	}
}

func TestNormalize(t *testing.T) {
	s := orderSchema()
	ns := phi1(s).Normalize()
	// 3 pattern rows × 3 RHS attributes = 9 normal CFDs.
	if len(ns) != 9 {
		t.Fatalf("normalize(phi1) = %d rules, want 9", len(ns))
	}
	// First normal rule: [AC,PN] -> STR with pattern (212,_ || _).
	n := ns[0]
	if n.A != s.MustIndex("STR") || !n.TpA.Wildcard {
		t.Errorf("first normal rule wrong: %v", n)
	}
	if n.TpX[0].Const != "212" || !n.TpX[1].Wildcard {
		t.Errorf("first normal rule LHS pattern wrong: %v", n)
	}
	// Second: [AC,PN] -> CT with constant NYC.
	if ns[1].TpA.Const != "NYC" || ns[1].ConstantRHS() != true {
		t.Errorf("second normal rule wrong: %v", ns[1])
	}
	if ns[0].ConstantRHS() {
		t.Error("wildcard RHS must not be ConstantRHS")
	}
	if ns[0].Source != nil && ns[0].Source.Name != "phi1" {
		t.Error("normalization must track source")
	}
}

func TestEmbeddedFD(t *testing.T) {
	s := orderSchema()
	fd := phi1(s).EmbeddedFD()
	if len(fd.Tableau) != 1 {
		t.Fatalf("embedded FD tableau rows = %d", len(fd.Tableau))
	}
	for _, c := range fd.Tableau[0] {
		if !c.Wildcard {
			t.Error("embedded FD must be all wildcards")
		}
	}
}

// TestPaperViolations reproduces Example 2.2 / 1.1: the Fig. 1 data
// satisfies ϕ3, ϕ4, but t3 and t4 each violate ϕ1 and ϕ2.
func TestPaperViolations(t *testing.T) {
	r := paperData(t)
	s := r.Schema()
	if !Satisfies(r, NormalizeAll([]*CFD{phi3(s), phi4(s)})) {
		t.Error("Fig. 1 data must satisfy phi3, phi4")
	}
	sigma := NormalizeAll([]*CFD{phi1(s), phi2(s)})
	d := NewVioStore(r, sigma)
	defer d.Close()
	if d.Satisfied() {
		t.Fatal("Fig. 1 data must violate phi1, phi2")
	}
	vio := d.VioAll()
	t3 := r.Tuples()[2]
	t4 := r.Tuples()[3]
	// t3 violates phi1 (AC=212 but CT,ST != NYC,NY — 2 constant-RHS rules)
	// and phi2 (zip=10012 — 2 more), same for t4.
	if vio[t3.ID] != 4 {
		t.Errorf("vio(t3) = %d, want 4", vio[t3.ID])
	}
	if vio[t4.ID] != 4 {
		t.Errorf("vio(t4) = %d, want 4", vio[t4.ID])
	}
	t1 := r.Tuples()[0]
	if vio[t1.ID] != 0 {
		t.Errorf("vio(t1) = %d, want 0", vio[t1.ID])
	}
	if got := d.Detector().VioTuple(t3); got != 4 {
		t.Errorf("VioTuple(t3) = %d, want 4", got)
	}
	if d.TotalViolations() != 8 {
		t.Errorf("TotalViolations = %d, want 8", d.TotalViolations())
	}
}

// TestPaperRepairSatisfies applies the repair suggested in Example 1.1 —
// set t3[CT,ST] = t4[CT,ST] = (NYC, NY) — and checks the result satisfies
// the CFDs.
func TestPaperRepairSatisfies(t *testing.T) {
	r := paperData(t)
	s := r.Schema()
	sigma := NormalizeAll([]*CFD{phi1(s), phi2(s), phi3(s), phi4(s)})
	d := NewVioStore(r, sigma)
	ct, st := s.MustIndex("CT"), s.MustIndex("ST")
	for _, i := range []int{2, 3} {
		tp := r.Tuples()[i]
		if _, err := r.Set(tp.ID, ct, relation.S("NYC")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Set(tp.ID, st, relation.S("NY")); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Satisfied() {
		t.Error("repaired Fig. 1 data must satisfy all CFDs")
	}
}

// TestCase2Violation exercises variable-RHS (pairwise) violations: the
// paper's t5 insertion (Example 1.1) violates fd1 with t1.
func TestCase2Violation(t *testing.T) {
	r := paperData(t)
	s := r.Schema()
	// Repair t3/t4 first so the base is clean.
	ct, st := s.MustIndex("CT"), s.MustIndex("ST")
	for _, i := range []int{2, 3} {
		tp := r.Tuples()[i]
		r.Set(tp.ID, ct, relation.S("NYC"))
		r.Set(tp.ID, st, relation.S("NY"))
	}
	t5, err := r.InsertRow("a45", "W. Smith", "9.99", "215", "8983490", "Walnut", "NYC", "NY", "10012")
	if err != nil {
		t.Fatal(err)
	}
	sigma := NormalizeAll([]*CFD{phi1(s)})
	d := NewVioStore(r, sigma)
	defer d.Close()
	// t5 agrees with t1 on (AC,PN)=(215,8983490), matches pattern row 3
	// (215,_), but CT,ST differ -> case-2 style violations... note the 215
	// row has constant RHS for CT and ST, so t5 violates those directly,
	// and STR (wildcard RHS) matches t1 so no STR violation (Walnut both).
	vio := d.VioAll()
	if vio[t5.ID] == 0 {
		t.Error("t5 must violate phi1")
	}
	// Pure variable-RHS check via the embedded FD.
	fd := NormalizeAll([]*CFD{phi1(s).EmbeddedFD()})
	d2 := NewVioStore(r, fd)
	defer d2.Close()
	vio2 := d2.VioAll()
	// t5 and t1 disagree on CT and ST -> 2 violations each.
	t1 := r.Tuples()[0]
	if vio2[t5.ID] != 2 || vio2[t1.ID] != 2 {
		t.Errorf("fd1 violations: t5=%d t1=%d, want 2, 2", vio2[t5.ID], vio2[t1.ID])
	}
	// Each is the other's one partner on CT: their shared bucket lists
	// both, and its tally of CT counts one member disagreeing with each.
	for _, g := range d2.Detector().Groups() {
		if g.A() != ct {
			continue
		}
		for _, tu := range []*relation.Tuple{t5, t1} {
			ids, c := g.Bucket(tu)
			if disagree := c.NonNull() - c.Count(tu.IDAt(ct)); disagree != 1 || !slices.Equal(ids, []relation.TupleID{t1.ID, t5.ID}) {
				t.Errorf("t%d's bucket on CT: %v with %d disagreeing, want [t1 t5] with 1", tu.ID, ids, disagree)
			}
		}
	}
	if d2.Detector().VioTuple(t5) != 2 || d2.Detector().VioTuple(t1) != 2 {
		t.Errorf("VioTuple: t5=%d t1=%d, want 2, 2", d2.Detector().VioTuple(t5), d2.Detector().VioTuple(t1))
	}
}

func TestNullResolvesCase2(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	r := relation.New(s)
	r.MustInsert(relation.NewTuple(0, "k", "v1"))
	t2 := relation.NewTuple(0, "k", "v2")
	r.MustInsert(t2)
	fd, err := FD("fd", s, []string{"a"}, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	sigma := fd.Normalize()
	d := NewVioStore(r, sigma)
	if d.Satisfied() {
		t.Fatal("k->v1/v2 must violate the FD")
	}
	// Setting one side to null resolves the violation (§4.1 case 2.3).
	r.Set(t2.ID, 1, relation.NullValue)
	if !d.Satisfied() {
		t.Error("null must resolve a variable-RHS violation")
	}
}

func TestNullLHSNeverMatches(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	r := relation.New(s)
	tp := &relation.Tuple{Vals: []relation.Value{relation.NullValue, relation.S("x")}}
	r.MustInsert(tp)
	φ := MustNew("c", s, []string{"a"}, []string{"b"},
		[]Cell{W, C("y")})
	if !Satisfies(r, φ.Normalize()) {
		t.Error("tuple with null LHS must not violate any CFD")
	}
}

func TestNullRHSSatisfiesConstantCFD(t *testing.T) {
	// Example 5.1 uses (null, null) to satisfy ϕ2's constant RHS: a null
	// RHS value is "unknown" and never a violation.
	s := relation.MustSchema("r", "zip", "CT")
	r := relation.New(s)
	r.MustInsert(&relation.Tuple{Vals: []relation.Value{relation.S("10012"), relation.NullValue}})
	φ := MustNew("c", s, []string{"zip"}, []string{"CT"},
		[]Cell{C("10012"), C("NYC")})
	if !Satisfies(r, φ.Normalize()) {
		t.Error("null RHS must satisfy a constant-RHS CFD")
	}
	if RHSViolates(relation.NullValue, C("NYC")) {
		t.Error("RHSViolates(null, const) must be false")
	}
	if !RHSViolates(relation.S("PHI"), C("NYC")) {
		t.Error("RHSViolates(PHI, NYC) must be true")
	}
	if RHSViolates(relation.S("x"), W) {
		t.Error("nothing violates a wildcard RHS cell by itself")
	}
}

func TestSingleTupleViolatesConstantCFD(t *testing.T) {
	// Example 2.2's point: a single tuple may violate a CFD (unlike FDs).
	s := relation.MustSchema("r", "zip", "CT")
	r := relation.New(s)
	r.MustInsert(relation.NewTuple(0, "10012", "PHI"))
	φ := MustNew("c", s, []string{"zip"}, []string{"CT"},
		[]Cell{C("10012"), C("NYC")})
	d := NewVioStore(r, φ.Normalize())
	defer d.Close()
	if d.Satisfied() {
		t.Error("single tuple must be able to violate a constant CFD")
	}
	if d.TotalViolations() != 1 {
		t.Errorf("TotalViolations = %d, want 1", d.TotalViolations())
	}
}

// TestDetectorLifecycle: a store sees every insert, Set and Delete of its
// relation, and after each its whole-database answers — Detect, VioAll,
// TotalViolations, Satisfied — agree with its detector's vio(t) of every
// tuple. (A detector nothing maintained once answered Satisfied, 0 and no
// violation after a violating insert while VioTuple of the new tuple said
// 1.)
func TestDetectorLifecycle(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	r := relation.New(s)
	t1 := relation.NewTuple(0, "k", "v1")
	r.MustInsert(t1)
	fd, _ := FD("fd", s, []string{"a"}, []string{"b"})
	d := NewVioStore(r, fd.Normalize())
	defer d.Close()
	agree := func(step string, want int) {
		t.Helper()
		sum, vioAll := 0, d.VioAll()
		for _, tu := range r.Tuples() {
			n := d.Detector().VioTuple(tu)
			sum += n
			if vioAll[tu.ID] != n {
				t.Fatalf("%s: VioAll[t%d] = %d, VioTuple says %d", step, tu.ID, vioAll[tu.ID], n)
			}
		}
		if sum != want || d.TotalViolations() != sum || len(d.Detect()) != sum || d.Satisfied() != (sum == 0) {
			t.Fatalf("%s: VioTuple sums to %d (want %d); TotalViolations %d, %d detected, Satisfied %v",
				step, sum, want, d.TotalViolations(), len(d.Detect()), d.Satisfied())
		}
	}
	agree("one tuple", 0)
	t2 := relation.NewTuple(0, "k", "v2")
	r.MustInsert(t2)
	agree("violating insert", 2)
	if _, err := r.Set(t2.ID, 1, relation.S("v1")); err != nil {
		t.Fatal(err)
	}
	agree("repairing set", 0)
	if _, err := r.Set(t1.ID, 1, relation.S("v3")); err != nil {
		t.Fatal(err)
	}
	agree("violating set", 2)
	r.Delete(t2.ID)
	agree("delete", 0)
}

func TestSatisfiable(t *testing.T) {
	s := orderSchema()
	// The paper's constraints are satisfiable.
	w, err := Satisfiable(NormalizeAll([]*CFD{phi1(s), phi2(s), phi3(s), phi4(s)}))
	if err != nil {
		t.Fatalf("paper CFDs must be satisfiable: %v", err)
	}
	_ = w
	// Two all-wildcard-LHS rules forcing different constants conflict.
	a := MustNew("a", s, []string{"AC"}, []string{"CT"}, []Cell{W, C("NYC")})
	b := MustNew("b", s, []string{"AC"}, []string{"CT"}, []Cell{W, C("PHI")})
	if _, err := Satisfiable(NormalizeAll([]*CFD{a, b})); err == nil {
		t.Error("conflicting wildcard rules must be unsatisfiable")
	}
	// Chained forcing: _ -> CT=NYC, and (CT=NYC) -> ST=NY, (CT=NYC) -> ST=PA.
	c1 := MustNew("c1", s, []string{"CT"}, []string{"ST"}, []Cell{C("NYC"), C("NY")})
	c2 := MustNew("c2", s, []string{"CT"}, []string{"ST"}, []Cell{C("NYC"), C("PA")})
	if _, err := Satisfiable(NormalizeAll([]*CFD{a, c1, c2})); err == nil {
		t.Error("propagated conflict must be detected")
	}
	// Without the forcing rule the conflict cannot fire.
	if _, err := Satisfiable(NormalizeAll([]*CFD{c1, c2})); err != nil {
		t.Errorf("dormant conflict must be satisfiable: %v", err)
	}
}

func TestWitnessTuple(t *testing.T) {
	s := orderSchema()
	cfds := []*CFD{phi1(s), phi2(s), phi3(s), phi4(s)}
	sigma := NormalizeAll(cfds)
	w, err := WitnessTuple(s, sigma)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	r.MustInsert(w)
	if !Satisfies(r, sigma) {
		t.Error("witness tuple must satisfy sigma")
	}
}

func TestDepGraph(t *testing.T) {
	s := orderSchema()
	// phi2 (zip -> CT,ST) and phi4 (CT,STR -> zip) are mutually dependent;
	// phi3 (id -> name,PR) is independent of both.
	sigma := NormalizeAll([]*CFD{phi2(s), phi3(s), phi4(s)})
	g := NewDepGraph(sigma)
	if len(g.Order()) != len(sigma) {
		t.Fatalf("order covers %d of %d rules", len(g.Order()), len(sigma))
	}
	seen := make(map[int]bool)
	for _, i := range g.Order() {
		if seen[i] {
			t.Fatal("order repeats a rule")
		}
		seen[i] = true
	}
	// phi2#0.CT (zip->CT) must have an edge to some rule with CT in LHS
	// (phi4 rows: CT,STR -> zip).
	var phi2CT, phi4zip int = -1, -1
	for i, n := range sigma {
		if strings.HasPrefix(n.Name, "phi2") && n.Schema.Attr(n.A) == "CT" {
			phi2CT = i
		}
		if strings.HasPrefix(n.Name, "phi4") {
			phi4zip = i
		}
	}
	if phi2CT < 0 || phi4zip < 0 {
		t.Fatal("rules not found")
	}
	found := false
	for _, j := range g.Succ(phi2CT) {
		if j == phi4zip {
			found = true
		}
	}
	if !found {
		t.Error("phi2 (writes CT) must point at phi4 (reads CT)")
	}
}

func TestParseRoundTrip(t *testing.T) {
	s := orderSchema()
	spec := `
# the paper's constraints
cfd phi1: [AC, PN] -> [STR, CT, ST]
(212, _ || _, NYC, NY)
(610, _ || _, PHI, PA)
(215, _ || _, PHI, PA)

cfd phi2: [zip] -> [CT, ST]
(10012 || NYC, NY)
(19014 || PHI, PA)

cfd phi3: [id] -> [name, PR]
(_ || _, _)
`
	cfds, err := Parse(s, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfds) != 3 {
		t.Fatalf("parsed %d CFDs, want 3", len(cfds))
	}
	if len(cfds[0].Tableau) != 3 || len(cfds[1].Tableau) != 2 {
		t.Error("tableau row counts wrong")
	}
	if cfds[0].Tableau[0][0].Const != "212" {
		t.Error("first cell wrong")
	}
	if !cfds[2].Tableau[0][0].Wildcard {
		t.Error("FD row must be wildcard")
	}
	var buf strings.Builder
	if err := Format(&buf, cfds); err != nil {
		t.Fatal(err)
	}
	again, err := Parse(s, strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if len(again) != 3 {
		t.Fatalf("round trip lost CFDs")
	}
	for i := range again {
		if again[i].String() != cfds[i].String() {
			t.Errorf("round trip changed %s to %s", cfds[i], again[i])
		}
	}
}

func TestParseQuoted(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	spec := "cfd q: [a] -> [b]\n('New York, NY' || '_')\n"
	cfds, err := Parse(s, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	row := cfds[0].Tableau[0]
	if row[0].Const != "New York, NY" {
		t.Errorf("quoted cell = %q", row[0].Const)
	}
	if row[1].Wildcard || row[1].Const != "_" {
		t.Errorf("quoted underscore must be the constant %q, got %v", "_", row[1])
	}
}

func TestParseErrors(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	cases := []string{
		"",                                   // no constraints
		"cfd x [a] -> [b]\n(_ || _)\n",       // missing colon
		"cfd x: [a] [b]\n(_ || _)\n",         // missing arrow
		"cfd x: a -> [b]\n(_ || _)\n",        // unbracketed list
		"cfd x: [a] -> [b]\n",                // no rows
		"cfd x: [a] -> [b]\n(_, _ || _)\n",   // wrong row width
		"cfd x: [a] -> [b]\n(_ || _\n",       // missing close paren
		"cfd x: [a] -> [b]\n(_ , _)\n",       // missing separator
		"(_ || _)\n",                         // row before header
		"garbage\n",                          // unknown line
		"cfd x: [a] -> [b]\n(it's || _)\n",   // unbalanced quote
		"cfd x: [nope] -> [b]\n(_ || _)\n",   // unknown attribute
		"cfd : [a] -> [b]\n(_ || _)\n",       // empty name
		"cfd x: [a, ] -> [b]\n(_, _ || _)\n", // empty attribute
		"cfd x: [a] -> [b]\n(_ || )\n",       // empty cell
		"cfd x: [a] -> [b]\n(a\rb || _)\n",   // carriage return inside a line
	}
	for _, c := range cases {
		if _, err := Parse(s, strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

// TestFormatParseSeparatorAndLineBreaks holds Format and Parse to each
// other where the row syntax is tight: a constant holding `||` on either
// side reads back as written, a row that parses at its first `||` keeps
// that reading, and a constant or name holding a line break is refused by
// Format instead of written as text Parse would misread.
func TestFormatParseSeparatorAndLineBreaks(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	for _, tc := range []struct {
		name    string
		cfdName string
		lhs     string
		rhs     string
		wantErr bool
	}{
		{"or-in-lhs", "x", "a||b", "c", false},
		{"or-in-rhs", "x", "c", "a||b", false},
		{"or-on-both-sides", "x", "p||q", "r||s", false},
		{"newline-constant", "x", "a\nb", "c", true},
		{"carriage-return-constant", "x", "c", "a\rb", true},
		{"newline-name", "x\ny", "a", "c", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			φ, err := New(tc.cfdName, s, []string{"a"}, []string{"b"}, []Cell{C(tc.lhs), C(tc.rhs)})
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			err = Format(&buf, []*CFD{φ})
			if tc.wantErr {
				if err == nil || buf.Len() != 0 {
					t.Fatalf("Format = %v, wrote %q; want an error and nothing written", err, buf.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			again, err := Parse(s, strings.NewReader(buf.String()))
			if err != nil {
				t.Fatalf("Parse(%q): %v", buf.String(), err)
			}
			if got, want := normalForm(again), normalForm([]*CFD{φ}); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip through %q: got %v, want %v", buf.String(), got, want)
			}
		})
	}

	// Rows that parse at their first `||` are read as before, even where
	// a `||` outside quotes comes later.
	cfds, err := Parse(s, strings.NewReader("cfd r: [a] -> [b]\n('x'y' || 'a''||'b')\n"))
	if err != nil {
		t.Fatal(err)
	}
	if row := cfds[0].Tableau[0]; row[0].Const != "x'y" || row[1].Const != "a''||'b" {
		t.Fatalf("row read as %q || %q", row[0].Const, row[1].Const)
	}
}

// TestFormatQuotes: the row syntax has no escape for `'`, so Format
// refuses a constant holding one exactly when its row would read back as
// other cells — naming the rule and the constant, and writing nothing —
// and writes the quotes that do read back as written.
func TestFormatQuotes(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	for _, tc := range []struct {
		lhs, rhs string
		refused  bool
	}{
		{"x'||'y", "z,", true}, // would read back as x || y' || 'z,
		{"it's, ok", "c", true},
		{"it's", "O'Neil's", false},
		{"a", "'", false},
		{"a'b'c", "c", false},
		{"'", "x'y", false},
		{"x'y", "a'||'b", false},
	} {
		φ := MustNew("q", s, []string{"a"}, []string{"b"}, []Cell{C(tc.lhs), C(tc.rhs)})
		var buf strings.Builder
		err := Format(&buf, []*CFD{φ})
		if tc.refused {
			bad := tc.lhs
			if !strings.Contains(bad, "'") {
				bad = tc.rhs
			}
			if err == nil || buf.Len() != 0 || !strings.Contains(err.Error(), "q: the constant "+strconv.Quote(bad)) {
				t.Errorf("Format(%q || %q) = %v, wrote %q; want an error naming the rule and the constant, nothing written", tc.lhs, tc.rhs, err, buf.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("Format(%q || %q): %v", tc.lhs, tc.rhs, err)
			continue
		}
		again, err := Parse(s, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("Parse(%q): %v", buf.String(), err)
		}
		if row := again[0].Tableau[0]; row[0] != C(tc.lhs) || row[1] != C(tc.rhs) {
			t.Errorf("%q || %q read back from %q as %q || %q", tc.lhs, tc.rhs, buf.String(), row[0].Const, row[1].Const)
		}
	}

	// Where more than one constant holds a quote, the error names the
	// first cell that reads back as another, or the row where its text
	// does not parse; a constant with an odd number of quotes reads back
	// only as the last cell of its side.
	s3 := relation.MustSchema("r", "a", "b", "c")
	for _, tc := range []struct{ a, b, c, named string }{
		{"a'b'c", "x'||'y", "z,", `q: the constant "x'||'y"`}, // reads back as a'b'c, x || y' || 'z,
		{"ok's", "x'||'y", "z,", `q: the row ('ok's', 'x'||'y' || 'z,')`},
		{"it's", "a", "c", `q: the constant "it's"`},
		{"a", "it's", "O'Neil's", ""},
	} {
		φ := MustNew("q", s3, []string{"a", "b"}, []string{"c"}, []Cell{C(tc.a), C(tc.b), C(tc.c)})
		var buf strings.Builder
		err := Format(&buf, []*CFD{φ})
		switch {
		case tc.named == "" && err != nil:
			t.Errorf("Format(%q, %q || %q): %v", tc.a, tc.b, tc.c, err)
		case tc.named != "" && (err == nil || buf.Len() != 0 || !strings.Contains(err.Error(), tc.named)):
			t.Errorf("Format(%q, %q || %q) = %v, wrote %q; want an error naming %s, nothing written", tc.a, tc.b, tc.c, err, buf.String(), tc.named)
		}
	}
}

// TestFormatLineLength: Parse reads lines of up to maxLine bytes, "\n"
// included, so Format writes a row or header that long and refuses one a
// byte longer, writing nothing.
func TestFormatLineLength(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	row := func(n int) *CFD { // its line, "(" + n bytes + " || z)\n", is n+8 bytes
		return MustNew("x", s, []string{"a"}, []string{"b"}, []Cell{C(strings.Repeat("y", n)), C("z")})
	}
	named := func(n int) *CFD { // its header line, "cfd " + name + ": [a] -> [b]\n", is n+17 bytes
		return MustNew(strings.Repeat("n", n), s, []string{"a"}, []string{"b"}, []Cell{W, W})
	}
	for _, tc := range []struct {
		φ       *CFD
		refused bool
	}{
		{row(maxLine - 8), false}, {row(maxLine - 7), true},
		{named(maxLine - 17), false}, {named(maxLine - 16), true},
	} {
		var buf strings.Builder
		err := Format(&buf, []*CFD{tc.φ})
		if tc.refused {
			if err == nil || buf.Len() != 0 {
				t.Errorf("%d-byte text: Format = %v, wrote %d bytes; want an error and nothing written", len(tc.φ.Name)+len(tc.φ.Tableau[0][0].Const), err, buf.Len())
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(s, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("Parse of what Format wrote: %v", err)
		}
		if got, want := normalForm(again), normalForm([]*CFD{tc.φ}); !reflect.DeepEqual(got, want) {
			t.Fatal("a line of the longest length Parse reads did not round-trip")
		}
	}
}

// FuzzParseCFDs: whatever Parse accepts, Format writes, and Parse reads
// the written text back to the same normal-form Σ.
func FuzzParseCFDs(f *testing.F) {
	s := relation.MustSchema("r", "a", "b", "c")
	for _, seed := range []string{
		"cfd x: [a] -> [b]\n(_ || _)\n",
		"# comment\ncfd q: [a, b] -> [c]\n('New York, NY', _ || '_')\n(1, 2 || 3)\n",
		"cfd p: [a] -> [b, c]\n('a||b' || c, 'd||e')\n",
		"cfd r: [a] -> [b]\n('x'y' || 'a''||'b')\n",
		"cfd s:: [c] -> [a]\r\n(' (x) ' || 'it''s')\r\n",
		"cfd t:[a, b] -> [c]\n( a|, |b || _ )\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfds, err := Parse(s, strings.NewReader(text))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := Format(&buf, cfds); err != nil {
			t.Fatalf("Format refused what Parse accepted: %v", err)
		}
		again, err := Parse(s, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("Parse of the formatted text\n%s: %v", buf.String(), err)
		}
		if got, want := normalForm(again), normalForm(cfds); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip through\n%s\nchanged Σ:\ngot  %v\nwant %v", buf.String(), got, want)
		}
	})
}

// FuzzFormatParseCFDs starts from code, not from text: a Σ built from
// fuzzed constant bytes either is refused by Format, which then writes
// nothing, or reads back from the text Format writes for it to the same
// normal form, names included. FuzzParseCFDs cannot see a constant Parse
// would not keep, since its Σ comes out of Parse. Line breaks are dropped
// (Format refuses them, TestFormatParseSeparatorAndLineBreaks); single
// quotes stay, and Format may refuse only a Σ with a constant holding one.
func FuzzFormatParseCFDs(f *testing.F) {
	s := relation.MustSchema("r", "a", "b", "c", "d")
	for _, seed := range []struct {
		x, y, z string
		wild    uint8
	}{
		{"caf\xe9", "x", "y", 0},
		{"New York, NY", "_", " pad ", 1},
		{"a||b", "(x)", "", 2},
		{"\xff\xfe|", "\u00a0nbsp", "#", 4},
		{"", "c", "|", 7},
		{"x'||'y", "z,", "it's", 0},
		{"O'Neil's", "a'b'c", "'", 2},
	} {
		f.Add(seed.x, seed.y, seed.z, seed.wild)
	}
	refused := strings.NewReplacer("\n", "", "\r", "") // byte-wise: invalid UTF-8 stays
	f.Fuzz(func(t *testing.T, x, y, z string, wild uint8) {
		x, y, z = refused.Replace(x), refused.Replace(y), refused.Replace(z)
		cell := func(bit uint8, c string) Cell {
			if wild&bit != 0 {
				return W
			}
			return C(c)
		}
		sigma := []*CFD{
			MustNew("x", s, []string{"a", "b"}, []string{"c", "d"},
				[]Cell{cell(1, x), cell(2, y), cell(4, z), C(x)},
				[]Cell{C(z), C(x), C(y), cell(8, y)}),
			MustNew("y", s, []string{"d"}, []string{"a"}, []Cell{C(y + z), cell(16, x)}),
		}
		var buf strings.Builder
		if err := Format(&buf, sigma); err != nil {
			if !strings.Contains(x+y+z, "'") || buf.Len() != 0 {
				t.Fatalf("Format of %q, %q, %q: %v, wrote %q", x, y, z, err, buf.String())
			}
			return
		}
		again, err := Parse(s, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("Parse of\n%s: %v", buf.String(), err)
		}
		if got, want := normalForm(again), normalForm(sigma); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip through\n%q\nchanged Σ:\ngot  %q\nwant %q", buf.String(), got, want)
		}
	})
}

// normalForm is Σ's normal form without the pointers to schema and source.
func normalForm(cfds []*CFD) []Normal {
	var out []Normal
	for _, n := range NormalizeAll(cfds) {
		m := *n
		m.Schema, m.Source = nil, nil
		out = append(out, m)
	}
	return out
}

func TestStringRendering(t *testing.T) {
	s := orderSchema()
	φ := phi2(s)
	if got := φ.String(); got != "phi2: [zip] -> [CT, ST]" {
		t.Errorf("CFD.String = %q", got)
	}
	n := φ.Normalize()[0]
	if got := n.String(); got != "phi2#0.CT: [zip] -> CT, (10012 || NYC)" {
		t.Errorf("Normal.String = %q", got)
	}
	if W.String() != "_" || C("x").String() != "x" {
		t.Error("Cell.String wrong")
	}
}

// Property: MatchValue(v, W) for every non-null v; and matching a constant
// cell is exactly string equality.
func TestMatchValueProperties(t *testing.T) {
	f := func(v, c string) bool {
		okW := MatchValue(relation.S(v), W)
		okC := MatchValue(relation.S(v), C(c)) == (v == c)
		return okW && okC
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a relation always satisfies the embedded FD of a key-like CFD
// when every tuple has a distinct LHS.
func TestDistinctLHSAlwaysSatisfiesFD(t *testing.T) {
	s := relation.MustSchema("r", "a", "b")
	fd, _ := FD("fd", s, []string{"a"}, []string{"b"})
	sigma := fd.Normalize()
	f := func(vals []string) bool {
		r := relation.New(s)
		seen := make(map[string]bool)
		for i, v := range vals {
			if seen[v] {
				continue
			}
			seen[v] = true
			r.MustInsert(relation.NewTuple(0, v, vals[(i+1)%len(vals)]))
		}
		return Satisfies(r, sigma)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Succ returns the sigma positions whose LHS reads the attribute written
// by sigma[i].
func (g *DepGraph) Succ(i int) []int { return g.adj[i] }
