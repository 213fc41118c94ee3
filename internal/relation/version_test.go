package relation

import "testing"

// TestVersionCountsEveryMutation pins the journal's freshness token:
// Version bumps on every Insert, Delete and effective Set — and only on
// those — independent of subscribers, while NextID advances on inserts
// alone.
func TestVersionCountsEveryMutation(t *testing.T) {
	r := New(MustSchema("r", "A", "B"))
	if r.Version() != 0 {
		t.Fatalf("fresh relation version = %d", r.Version())
	}

	t1, err := r.InsertRow("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r.InsertRow("x", "z")
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 {
		t.Fatalf("after 2 inserts version = %d", r.Version())
	}
	if r.NextID() != t2.ID+1 {
		t.Fatalf("NextID = %d, want %d", r.NextID(), t2.ID+1)
	}

	// A no-op Set (same value) must not claim the state changed.
	if _, err := r.Set(t1.ID, 0, S("x")); err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 {
		t.Fatalf("no-op Set bumped version to %d", r.Version())
	}
	if _, err := r.Set(t1.ID, 0, S("q")); err != nil {
		t.Fatal(err)
	}
	if r.Version() != 3 {
		t.Fatalf("effective Set: version = %d, want 3", r.Version())
	}

	if !r.Delete(t2.ID) {
		t.Fatal("delete failed")
	}
	if r.Version() != 4 {
		t.Fatalf("after delete version = %d, want 4", r.Version())
	}
	// Deletes and sets never advance the insertion watermark.
	if r.NextID() != t2.ID+1 {
		t.Fatalf("NextID moved to %d on non-insert mutations", r.NextID())
	}

	// Two relations with equal Version built by the same mutation
	// sequence have identical state — the invariant snapshot readers
	// rely on; sanity-check the derived accessors used for it.
	// Attribute A now holds only t1's "q" (t2 was deleted).
	if r.ActiveDomainSize(0) != 1 || !r.Schema().Has("A") || r.Schema().Has("Z") {
		t.Fatal("accessor sanity check failed")
	}
	if StrictEqVals([]Value{S("a"), NullValue}, []Value{S("a"), S("b")}) {
		t.Fatal("StrictEqVals must not treat null as matching")
	}
}
