package relation

import "testing"

// TestRestoreJournalMarks: the recovery hook only advances the id
// watermark (an id below a live tuple's would corrupt the relation) and
// overwrites the version counter.
func TestRestoreJournalMarks(t *testing.T) {
	r := New(MustSchema("R", "a"))
	r.MustInsert(NewTuple(0, "x"))
	r.MustInsert(NewTuple(0, "y"))
	if r.NextID() != 3 || r.Version() != 2 {
		t.Fatalf("setup: nextID=%d version=%d", r.NextID(), r.Version())
	}
	r.RestoreJournalMarks(10, 55)
	if r.NextID() != 10 || r.Version() != 55 {
		t.Fatalf("advance: nextID=%d version=%d", r.NextID(), r.Version())
	}
	r.RestoreJournalMarks(4, 60) // nextID must not rewind
	if r.NextID() != 10 || r.Version() != 60 {
		t.Fatalf("rewind guard: nextID=%d version=%d", r.NextID(), r.Version())
	}
	tp := NewTuple(0, "z")
	r.MustInsert(tp)
	if tp.ID != 10 {
		t.Fatalf("insert after restore got id %d, want 10", tp.ID)
	}
}
