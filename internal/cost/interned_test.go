package cost

import (
	"testing"

	"cfdclean/internal/relation"
)

// The interned memo paths (PR 1's hot path): ChangeInterned and the
// per-worker Scratch must return exactly what the unmemoized model
// returns, bind to the first dictionary they see, and bypass the memo —
// never serve a stale distance — for foreign dictionaries and invalid
// ids.

func internedFixture(t *testing.T) (*relation.Relation, *relation.Tuple) {
	t.Helper()
	r := relation.New(relation.MustSchema("r", "A", "B"))
	tu, err := r.InsertRow("walnut", "spruce")
	if err != nil {
		t.Fatal(err)
	}
	// Candidate values must be interned for the memo key to exist.
	if _, err := r.InsertRow("wallnut", "bruce"); err != nil {
		t.Fatal(err)
	}
	return r, tu
}

func TestChangeInternedMatchesChange(t *testing.T) {
	r, tu := internedFixture(t)
	m := Default()
	for _, cand := range []relation.Value{
		relation.S("wallnut"), relation.S("walnut"), relation.NullValue,
		relation.S("never-interned"),
	} {
		want := m.Change(tu, 0, cand)
		// Twice: miss then memo hit must agree.
		for pass := 0; pass < 2; pass++ {
			if got := m.ChangeInterned(r.Dict(), tu, 0, cand); got != want {
				t.Fatalf("ChangeInterned(%v) pass %d = %v, want %v", cand, pass, got, want)
			}
		}
	}
	// A zero weight short-circuits to 0 without touching the memo.
	tu.SetWeight(0, 0)
	if got := m.ChangeInterned(r.Dict(), tu, 0, relation.S("wallnut")); got != 0 {
		t.Fatalf("zero-weight change = %v", got)
	}
}

func TestModelMemoBindsToFirstDict(t *testing.T) {
	r1, t1 := internedFixture(t)
	m := Default()
	bound := m.ChangeInterned(r1.Dict(), t1, 0, relation.S("wallnut"))

	// A different relation whose dictionary assigns the same ids to
	// different strings must not hit r1's cached distances.
	r2 := relation.New(relation.MustSchema("r", "A", "B"))
	t2, err := r2.InsertRow("table", "chair")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.InsertRow("cable", "hair"); err != nil {
		t.Fatal(err)
	}
	want := m.Change(t2, 0, relation.S("cable"))
	if got := m.ChangeInterned(r2.Dict(), t2, 0, relation.S("cable")); got != want {
		t.Fatalf("foreign-dict ChangeInterned = %v, want %v", got, want)
	}
	// And the bound dictionary still answers correctly afterwards.
	if got := m.ChangeInterned(r1.Dict(), t1, 0, relation.S("wallnut")); got != bound {
		t.Fatalf("bound-dict answer drifted: %v != %v", got, bound)
	}
}

func TestScratchMatchesModel(t *testing.T) {
	r, tu := internedFixture(t)
	m := Default()
	s := m.Scratch()
	if s.Model() != m {
		t.Fatal("Scratch must expose its model")
	}
	for _, cand := range []relation.Value{
		relation.S("wallnut"), relation.S("walnut"), relation.NullValue,
	} {
		want := m.Change(tu, 0, cand)
		for pass := 0; pass < 2; pass++ { // miss, then local-memo hit
			if got := s.ChangeFromInterned(r.Dict(), tu, 0, tu.At(0), r.Dict().Resolve(cand)); got != want {
				t.Fatalf("Scratch.ChangeFromInterned(%v) pass %d = %v, want %v", cand, pass, got, want)
			}
		}
	}
	// Both ids known, one unseen (InvalidID bypasses the memo), one null.
	bruce := r.Dict().Resolve(relation.S("bruce"))
	for _, old := range []relation.IDValue{
		r.Dict().Resolve(relation.S("spruce")),
		r.Dict().Resolve(relation.S("never-interned")),
		relation.NullIDValue,
	} {
		want := m.ChangeFrom(tu, 1, old.Value, bruce.Value)
		for pass := 0; pass < 2; pass++ {
			if got := s.ChangeFromInterned(r.Dict(), tu, 1, old, bruce); got != want {
				t.Fatalf("Scratch.ChangeFromInterned(%v) pass %d = %v, want %v", old, pass, got, want)
			}
		}
	}
	tu.SetWeight(1, 0)
	if got := s.ChangeFromInterned(r.Dict(), tu, 1, relation.NullIDValue, bruce); got != 0 {
		t.Fatalf("zero-weight scratch change = %v", got)
	}

	// Foreign dictionary: bypass, not stale hit.
	r2, t2 := internedFixture(t)
	if want, got := m.Change(t2, 0, relation.S("wallnut")), s.ChangeFromInterned(r2.Dict(), t2, 0, t2.At(0), r2.Dict().Resolve(relation.S("wallnut"))); got != want {
		t.Fatalf("scratch foreign-dict = %v, want %v", got, want)
	}
}
