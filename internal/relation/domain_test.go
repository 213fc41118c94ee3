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

// FuzzDomainVsRecount drives byte-chosen inserts, deletes, Sets and clones
// over a 3-attribute schema whose attributes draw from one shared 8-value
// pool, so values are placed under one attribute and spill into others all
// the time; after every step every domain read of every relation, the
// original and its latest clone, equals a recount from its tuples.
//
// Each op is one byte: its low two bits pick insert (three value bytes
// follow), delete (a tuple byte), Set (tuple, attribute and value bytes) or
// clone, and the rest picks the relation written, once a clone exists. A
// value byte picks a pool value, or null when it is 8 mod 9.
func FuzzDomainVsRecount(f *testing.F) {
	// The home table's tricky move: v0 is placed under a and spills into
	// b; it leaves a while b still holds it, and returns to a. Then it
	// leaves b and comes back to it, and a clone takes writes on both
	// sides.
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 2, 2, 0, 0, 0, 2, 0, 1, 3, 2, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2, 3, 2, 0, 0, 3, 6, 1, 1, 1, 4, 0, 5, 0, 0, 6, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 2, 3, 0, 3, 2, 1, 0, 8, 8, 8, 3, 5, 1, 1, 4, 2, 6, 1, 0, 2, 2, 0, 7})
	pool := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	f.Fuzz(func(t *testing.T, data []byte) {
		value := func(b byte) Value {
			if b%9 == 8 {
				return NullValue
			}
			return S(pool[b%9])
		}
		rels := []*Relation{New(MustSchema("r", "a", "b", "c"))}
		for len(data) > 0 {
			op := data[0]
			r := rels[int(op>>2)%len(rels)]
			arg := func(n int) []byte {
				if len(data) < 1+n {
					data = nil
					return nil
				}
				b := data[1 : 1+n]
				data = data[1+n:]
				return b
			}
			pickTuple := func(b byte) (TupleID, bool) {
				if r.Size() == 0 {
					return 0, false
				}
				return r.Tuples()[int(b)%r.Size()].ID, true
			}
			switch op & 3 {
			case 0:
				if b := arg(3); b != nil {
					r.MustInsert(&Tuple{Vals: []Value{value(b[0]), value(b[1]), value(b[2])}})
				}
			case 1:
				if b := arg(1); b != nil {
					if id, ok := pickTuple(b[0]); ok {
						r.Delete(id)
					}
				}
			case 2:
				if b := arg(3); b != nil {
					if id, ok := pickTuple(b[0]); ok {
						if _, err := r.Set(id, int(b[1])%3, value(b[2])); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 3:
				arg(0)
				rels = []*Relation{rels[0], r.Clone()}
			}
			for _, r := range rels {
				checkDomains(t, r, recount(r), pool)
			}
		}
	})
}

// TestCloneAllocs pins what the active domains cost New and Clone in
// allocations: New makes no per-attribute structure, and Clone of an
// n-tuple relation allocates a fixed number of times (one domain slice per
// attribute among them) plus three times per tuple (the tuple, its values
// and its ids), at every arity.
func TestCloneAllocs(t *testing.T) {
	const newAllocs, cloneFixed, perTuple = 6, 12, 3
	for _, arity := range []int{1, 13} {
		attrs := make([]string, arity)
		for a := range attrs {
			attrs[a] = fmt.Sprintf("a%d", a)
		}
		s := MustSchema("r", attrs...)
		var sink *Relation
		if n := testing.AllocsPerRun(100, func() { sink = New(s) }); n != newAllocs || sink == nil {
			t.Errorf("arity %d: New allocates %v times, want %d", arity, n, newAllocs)
		}
		// Five values per attribute, each attribute its own: the domains are
		// the same size whatever the tuple count, and the dictionary holds
		// the values of 13 attributes at every arity.
		build := func(n int) *Relation {
			r := New(s)
			for i := range 13 * 5 {
				r.Dict().InternStr(fmt.Sprintf("%d-%d", i/5, i%5))
			}
			for i := range n {
				vals := make([]string, arity)
				for a := range vals {
					vals[a] = fmt.Sprintf("%d-%d", a, i%5)
				}
				r.MustInsert(NewTuple(0, vals...))
			}
			return r
		}
		small, large := build(50), build(150)
		a50 := testing.AllocsPerRun(20, func() { sink = small.Clone() })
		a150 := testing.AllocsPerRun(20, func() { sink = large.Clone() })
		if per := (a150 - a50) / 100; per != perTuple {
			t.Errorf("arity %d: Clone allocates %v times per tuple, want %d", arity, per, perTuple)
		}
		if fixed := a50 - 50*perTuple; fixed != float64(cloneFixed+arity) {
			t.Errorf("arity %d: Clone allocates %v times besides its tuples, want %d", arity, fixed, cloneFixed+arity)
		}
	}
}
