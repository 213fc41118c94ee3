package cost

import (
	"testing"

	"cfdclean/internal/relation"
)

// The interned memo path: a Scratch must return exactly what the
// unmemoized model returns, bind to the first dictionary it sees, and
// bypass the memo — never serve a stale distance — for foreign
// dictionaries and invalid ids.

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

func TestScratchMatchesModel(t *testing.T) {
	r, tu := internedFixture(t)
	m := Default()
	s := m.Scratch()
	for _, cand := range []relation.Value{
		relation.S("wallnut"), relation.S("walnut"), relation.NullValue,
		relation.S("never-interned"),
	} {
		want := m.Change(tu, 0, cand)
		for pass := 0; pass < 2; pass++ { // miss, then memo hit
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
	// A zero weight short-circuits to 0 without touching the memo.
	tu.SetWeight(1, 0)
	if got := s.ChangeFromInterned(r.Dict(), tu, 1, relation.NullIDValue, bruce); got != 0 {
		t.Fatalf("zero-weight scratch change = %v", got)
	}

	// A different relation whose dictionary assigns the same ids to
	// different strings must not hit r's memoized distances.
	wallnut := r.Dict().Resolve(relation.S("wallnut"))
	bound := s.ChangeFromInterned(r.Dict(), tu, 0, tu.At(0), wallnut)
	r2 := relation.New(relation.MustSchema("r", "A", "B"))
	t2, err := r2.InsertRow("table", "chair")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.InsertRow("cable", "hair"); err != nil {
		t.Fatal(err)
	}
	cable := r2.Dict().Resolve(relation.S("cable"))
	if t2.At(0).ID != tu.At(0).ID || cable.ID != wallnut.ID {
		t.Fatalf("fixture: the two dictionaries must assign the same ids")
	}
	if want, got := m.Change(t2, 0, cable.Value), s.ChangeFromInterned(r2.Dict(), t2, 0, t2.At(0), cable); got != want {
		t.Fatalf("scratch foreign-dict = %v, want %v", got, want)
	}
	// And the bound dictionary still answers correctly afterwards.
	if got := s.ChangeFromInterned(r.Dict(), tu, 0, tu.At(0), wallnut); got != bound {
		t.Fatalf("bound-dict answer drifted: %v != %v", got, bound)
	}
}
