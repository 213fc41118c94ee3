package repair

import (
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// schema2 builds a compact schema for targeted mechanism tests.
func schema2(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("r", "K", "A", "B")
}

// TestMajorityCommit verifies the eager most-common-value commit: a class
// merged across one noisy and several clean tuples takes the majority
// value immediately rather than waiting for instantiation.
func TestMajorityCommit(t *testing.T) {
	s := schema2(t)
	d := relation.New(s)
	// Five tuples share K; one disagrees on A (the noise).
	d.MustInsert(relation.NewTuple(1, "k", "good", "x"))
	d.MustInsert(relation.NewTuple(2, "k", "good", "x"))
	d.MustInsert(relation.NewTuple(3, "k", "good", "x"))
	d.MustInsert(relation.NewTuple(4, "k", "good", "x"))
	d.MustInsert(relation.NewTuple(5, "k", "bad", "x"))
	fd, err := cfd.FD("fd", s, []string{"K"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Batch(d, cfd.NormalizeAll([]*cfd.CFD{fd}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := relation.TupleID(1); id <= 5; id++ {
		if got := res.Repair.Tuple(id).Vals[1].Str; got != "good" {
			t.Fatalf("tuple %d repaired to %q, want majority value \"good\"", id, got)
		}
	}
	if res.Changes != 1 {
		t.Fatalf("changes = %d, want 1 (only the noisy cell)", res.Changes)
	}
}

// TestPropagationGuard verifies the propagation-aware merge cost: a tuple
// whose key was mistyped into another group's key must not drag that
// group's RHS onto itself — its own low-weight key cell is the repair.
func TestPropagationGuard(t *testing.T) {
	s := schema2(t)
	d := relation.New(s)
	// Group k1 (majority): A = "v1". Group k2: A = "v2".
	for i := 1; i <= 4; i++ {
		d.MustInsert(relation.NewTuple(relation.TupleID(i), "k1", "v1", "x"))
	}
	for i := 5; i <= 8; i++ {
		d.MustInsert(relation.NewTuple(relation.TupleID(i), "k2", "v2", "x"))
	}
	// Tuple 9 belongs to k2 (A = v2) but its key was mistyped to k1; the
	// key cell carries a low weight (suspected dirty).
	bad := relation.NewTuple(9, "k1", "v2", "x")
	bad.SetWeight(0, 0.1)
	d.MustInsert(bad)
	fd, err := cfd.FD("fd", s, []string{"K"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Batch(d, cfd.NormalizeAll([]*cfd.CFD{fd}), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The clean k1 tuples must keep v1.
	for id := relation.TupleID(1); id <= 4; id++ {
		if got := res.Repair.Tuple(id).Vals[1].Str; got != "v1" {
			t.Fatalf("clean tuple %d dragged to %q", id, got)
		}
	}
	// Tuple 9 must have been separated (key edited to k2 or elsewhere),
	// not have its A rewritten to v1 along with a propagation.
	t9 := res.Repair.Tuple(9)
	if t9.Vals[0].Str == "k1" && t9.Vals[1].Str == "v1" {
		t.Fatalf("tuple 9 absorbed into k1: %v", t9)
	}
	if !cfd.Satisfies(res.Repair, cfd.NormalizeAll([]*cfd.CFD{fd})) {
		t.Fatal("repair violates the FD")
	}
}

// TestConstantRowWinsOnDirtyRHS: the classic case 1.1 — a tuple matching a
// constant pattern with a deviating RHS gets the pattern constant.
func TestConstantRowWinsOnDirtyRHS(t *testing.T) {
	s := schema2(t)
	d := relation.New(s)
	d.MustInsert(relation.NewTuple(1, "k1", "wrong", "x"))
	phi, err := cfd.New("c", s, []string{"K"}, []string{"A"},
		[]cfd.Cell{cfd.C("k1"), cfd.C("right")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Batch(d, cfd.NormalizeAll([]*cfd.CFD{phi}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Repair.Tuple(1).Vals[1].Str; got != "right" {
		t.Fatalf("A = %q, want pattern constant", got)
	}
}

// TestLHSEscapeWhenRHSPinned: case 1.2 — when the RHS class is already
// pinned to a conflicting constant, the violation resolves on the LHS.
func TestLHSEscapeWhenRHSPinned(t *testing.T) {
	s := schema2(t)
	d := relation.New(s)
	d.MustInsert(relation.NewTuple(1, "k1", "a-val", "x"))
	// Two constant rules disagree about tuple 1's A given K = k1 vs
	// B = x: one must win via the RHS, the other must escape via LHS.
	phi1, err := cfd.New("p1", s, []string{"K"}, []string{"A"},
		[]cfd.Cell{cfd.C("k1"), cfd.C("v1")})
	if err != nil {
		t.Fatal(err)
	}
	phi2, err := cfd.New("p2", s, []string{"B"}, []string{"A"},
		[]cfd.Cell{cfd.C("x"), cfd.C("v2")})
	if err != nil {
		t.Fatal(err)
	}
	sigma := cfd.NormalizeAll([]*cfd.CFD{phi1, phi2})
	res, err := Batch(d, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.Satisfies(res.Repair, sigma) {
		t.Fatal("repair violates Σ")
	}
	// The tuple can no longer match both patterns: either K or B was
	// edited (to null or another value).
	t1 := res.Repair.Tuple(1)
	if t1.Vals[0].Str == "k1" && t1.Vals[2].Str == "x" && !t1.Vals[0].Null && !t1.Vals[2].Null {
		t.Fatalf("tuple still matches both conflicting patterns: %v", t1)
	}
}
