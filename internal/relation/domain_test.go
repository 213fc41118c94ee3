package relation

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// recount derives the active domains from the tuples alone: value → number
// of tuples carrying it, per attribute.
func recount(r *Relation) []map[string]int {
	out := make([]map[string]int, r.Schema().Arity())
	for a := range out {
		out[a] = make(map[string]int)
	}
	for _, t := range r.Tuples() {
		for a, v := range t.Vals {
			if !v.Null {
				out[a][v.Str]++
			}
		}
	}
	return out
}

// checkDomains holds every read of the maintained domains to want.
func checkDomains(t *testing.T, r *Relation, want []map[string]int, absent []string) {
	t.Helper()
	for a, m := range want {
		if r.ActiveDomainSize(a) != len(m) {
			t.Fatalf("attr %d: ActiveDomainSize = %d, the tuples hold %d values", a, r.ActiveDomainSize(a), len(m))
		}
		if got, keys := r.ActiveDomain(a), slices.Sorted(maps.Keys(m)); !slices.Equal(got, keys) {
			t.Fatalf("attr %d: ActiveDomain = %q, the tuples hold %q", a, got, keys)
		}
		walked := make(map[string]bool, len(m))
		r.EachDomainValue(a, func(id ValueID, s string) {
			if walked[s] {
				t.Fatalf("attr %d: the walk yields %q twice", a, s)
			}
			walked[s] = true
			if _, ok := m[s]; !ok {
				t.Fatalf("attr %d: the walk yields %q, which no tuple carries", a, s)
			}
			if got, ok := r.Dict().LookupStr(s); !ok || got != id {
				t.Fatalf("attr %d: the walk pairs %q with id %d, the dictionary says %d", a, s, id, got)
			}
		})
		if len(walked) != len(m) {
			t.Fatalf("attr %d: the walk yields %d values of %d", a, len(walked), len(m))
		}
		for s, n := range m {
			if got := r.DomainCount(a, s); got != n {
				t.Fatalf("attr %d: DomainCount(%q) = %d, %d tuples carry it", a, s, got, n)
			}
		}
		for _, s := range absent {
			if _, ok := m[s]; !ok && r.DomainCount(a, s) != 0 {
				t.Fatalf("attr %d: DomainCount(%q) = %d, no tuple carries it", a, s, r.DomainCount(a, s))
			}
		}
	}
}

// TestDomainMatchesRecount: through random inserts, deletes and Sets — over
// few enough values that last occurrences come and go all the time — every
// read of the dense domains agrees with a recount from Tuples() after every
// step, and a clone's domains are its own.
func TestDomainMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := New(MustSchema("r", "a", "b", "c"))
	pool := make([]string, 12)
	for i := range pool {
		pool[i] = fmt.Sprintf("v%d", i)
	}
	pick := func(a int) Value {
		if rng.Intn(8) == 0 {
			return NullValue
		}
		// Attribute 0 draws from the whole pool, the others from less.
		return S(pool[rng.Intn(len(pool)>>uint(a))])
	}
	var clone *Relation
	var cloneWant []map[string]int
	for step := 0; step < 3000; step++ {
		live := r.Tuples()
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0:
			r.MustInsert(&Tuple{Vals: []Value{pick(0), pick(1), pick(2)}})
		case op < 7:
			r.Delete(live[rng.Intn(len(live))].ID)
		default:
			a := rng.Intn(3)
			if _, err := r.Set(live[rng.Intn(len(live))].ID, a, pick(a)); err != nil {
				t.Fatal(err)
			}
		}
		checkDomains(t, r, recount(r), pool)
		if clone != nil {
			// The original moved on; the clone did not.
			checkDomains(t, clone, cloneWant, pool)
		}
		if step%250 == 0 {
			clone = r.Clone()
			cloneWant = recount(clone)
			checkDomains(t, clone, cloneWant, pool)
			// Writes to the clone stay out of the original.
			c2 := r.Clone()
			for _, tu := range slices.Clone(c2.Tuples()) {
				c2.Delete(tu.ID)
			}
			c2.MustInsert(NewTuple(0, "only", "in", "c2"))
			checkDomains(t, c2, recount(c2), pool)
			checkDomains(t, r, recount(r), append(pool, "only", "in", "c2"))
		}
	}
	if r.Size() < 5 {
		t.Fatalf("%d tuples left; the schedule exercises too little", r.Size())
	}
}

// TestDomainBumpDropAllocs: moving a cell between two values other tuples
// carry too changes two counts and allocates nothing; and taking a value's
// last occurrence away and bringing it back reuses its place.
func TestDomainBumpDropAllocs(t *testing.T) {
	r := New(MustSchema("r", "a"))
	for _, s := range []string{"x", "y", "x", "y", "z", "w"} {
		r.MustInsert(NewTuple(0, s))
	}
	id := r.Tuples()[0].ID
	x, y, z := S("x"), S("y"), S("z")
	if n := testing.AllocsPerRun(100, func() {
		r.Set(id, 0, y)
		r.Set(id, 0, x)
	}); n != 0 {
		t.Errorf("a Set between two present values allocates %v times, want 0", n)
	}
	zid := r.Tuples()[4].ID
	if n := testing.AllocsPerRun(100, func() {
		r.Set(zid, 0, x) // z's last occurrence goes: w moves into its place
		r.Set(zid, 0, z) // and z comes back at the end
	}); n != 0 {
		t.Errorf("dropping and restoring a value's last occurrence allocates %v times, want 0", n)
	}
	checkDomains(t, r, recount(r), nil)
}
