package increpair

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// opsPools are the constants of runSessionOps's five attributes: three
// each, so that tuples collide on every LHS and most arrivals are clean.
var opsPools = [][]string{
	{"a0", "a1", "a2"},
	{"b0", "b1", "b2"},
	{"c0", "c1", "c2"},
	{"d0", "d1", "d2"},
	{"e0", "e1", "e2"},
}

// runSessionOps reads data as a session's life over a five-attribute schema:
// a random Σ (one to three CFDs, each on an LHS of one to three attributes
// with up to three pattern rows of constants and wildcards), a base, an ordering,
// and then ApplyOps batches of deletes, cell updates and inserts — most of
// the inserts copies of live tuples, clean as they come — until the bytes
// run out. The base rows and half the arrivals come as probes of another
// relation's dictionary, which numbers the same constants differently.
//
// After every batch it holds the session to checks independent of the
// maintained state: the store's violations equal those of a violation
// store freshly built over Current(), every tally of every live LHS index equals a recount
// (Detector.Recount), and every stored tuple's ids equal dictionary lookups
// of its values. Then it sends the batch's arrivals once more, unrepaired,
// the way the ByViolations ranking does — each counted through the store and
// inserted, clean ones on the fast path, dirty ones not — checks again,
// removes them and checks a third time.
func runSessionOps(t *testing.T, data []byte) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	schema := relation.MustSchema("r", "a", "b", "c", "d", "e")
	arity := schema.Arity()
	val := func(a int) relation.Value {
		b := next()
		if b%8 == 0 {
			return relation.NullValue
		}
		return relation.S(opsPools[a][b/8%len(opsPools[a])])
	}
	row := func() *relation.Tuple {
		vals := make([]relation.Value, arity)
		for a := range vals {
			vals[a] = val(a)
		}
		return &relation.Tuple{Vals: vals}
	}

	var cfds []*cfd.CFD
	for n := 1 + next()%3; n > 0; n-- {
		x := []int{next() % arity}
		if y := next() % arity; next()%2 == 0 && y != x[0] {
			x = append(x, y)
			if z := next() % arity; next()%2 == 0 && !slices.Contains(x, z) {
				x = append(x, z)
			}
		}
		a := next() % arity
		for slices.Contains(x, a) {
			a = (a + 1) % arity
		}
		var lhs []string
		for _, b := range x {
			lhs = append(lhs, schema.Attr(b))
		}
		var rows [][]cfd.Cell
		for r := 1 + next()%3; r > 0; r-- {
			var cells []cfd.Cell
			for _, b := range append(slices.Clone(x), a) {
				if c := next(); c%2 == 0 {
					cells = append(cells, cfd.W)
				} else {
					cells = append(cells, cfd.C(opsPools[b][c/2%len(opsPools[b])]))
				}
			}
			rows = append(rows, cells)
		}
		cfds = append(cfds, cfd.MustNew(fmt.Sprintf("phi%d", n), schema, lhs, []string{schema.Attr(a)}, rows...))
	}
	sigma := cfd.NormalizeAll(cfds)
	if _, err := cfd.Satisfiable(sigma); err != nil {
		return
	}

	// The other relation: every pool constant, interned last row first.
	pool := relation.New(schema)
	for i := len(opsPools[0]) - 1; i >= 0; i-- {
		vals := make([]string, arity)
		for a := range vals {
			vals[a] = opsPools[a][i]
		}
		pool.MustInsert(relation.NewTuple(0, vals...))
	}
	base := relation.New(schema)
	for n := next() % 12; n > 0; n-- {
		base.MustInsert(row().Probe(pool.Dict()))
	}
	sess, err := NewSession(base, sigma, &Options{Ordering: Ordering(next() % 3), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	e := sess.e

	check := func(tag string) {
		t.Helper()
		cur := sess.Current()
		fresh := cfd.NewVioStore(cur, sigma)
		got, want := e.store.Detect(), fresh.Detect()
		fresh.Close()
		if (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the store holds %v, a freshly built store finds %v", tag, got, want)
		}
		if err := e.det.Recount(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		dict := cur.Dict()
		for _, tu := range cur.Tuples() {
			for a, v := range tu.Vals {
				if id := dict.LookupValue(v); tu.IDAt(a) != id {
					t.Fatalf("%s: %v carries id %d at attribute %d, the dictionary says %d", tag, tu, tu.IDAt(a), a, id)
				}
			}
		}
	}
	check("opened")

	var counts []int
	for batch := 0; len(data) > 0; batch++ {
		live := sess.Current().Tuples()
		taken := make(map[relation.TupleID]bool)
		var dels []relation.TupleID
		for n := next() % 3; n > 0 && len(live) > 0; n-- {
			if id := live[next()%len(live)].ID; !taken[id] {
				taken[id] = true
				dels = append(dels, id)
			}
		}
		var sets []SetOp
		for n := next() % 3; n > 0 && len(live) > 0; n-- {
			id, a := live[next()%len(live)].ID, next()%arity
			if !taken[id] {
				sets = append(sets, SetOp{ID: id, Attr: a, Value: val(a)})
			}
		}
		var ins []*relation.Tuple
		for n := next() % 5; n > 0; n-- {
			var tu *relation.Tuple
			switch op := next(); {
			case op%3 < 2 && len(live) > 0:
				tu = live[next()%len(live)].Clone()
				tu.ID = 0
				if op%3 == 1 {
					a := next() % arity
					tu.Vals[a] = val(a)
				}
			default:
				tu = row()
			}
			if next()%4 == 0 {
				for a := range tu.Vals {
					tu.SetWeight(a, float64(next()%5)/4)
				}
			}
			if next()%2 == 0 {
				tu = tu.Probe(pool.Dict())
			}
			ins = append(ins, tu)
		}
		tag := fmt.Sprintf("batch %d", batch)
		if _, _, err := sess.ApplyOps(dels, sets, ins); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		check(tag)

		cur := sess.Current()
		mark := cur.NextID()
		var sent []*relation.Tuple
		for _, tu := range ins {
			p := tu.Probe(cur.Dict())
			counts = e.store.VioCounts(p, counts)
			cur.MustInsert(p)
			sent = append(sent, p)
		}
		check(tag + ", arrivals sent unrepaired")
		for i := len(sent) - 1; i >= 0; i-- {
			cur.Delete(sent[i].ID)
		}
		cur.RestoreNextID(mark)
		check(tag + ", and removed")
	}
}

// FuzzSessionOpsVsDetect is runSessionOps with the fuzzer choosing Σ, the
// base and the batches.
func FuzzSessionOpsVsDetect(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 400)
		rand.New(rand.NewSource(340 + seed)).Read(b)
		f.Add(b)
	}
	// One CFD [a,b,c] → d with the rows (a0, b0, c0 || d0) and (_, _, _ || _):
	// a three-id LHS index and mask bucket.
	wide := append([]byte{0, 0, 1, 0, 2, 0, 3, 1, 1, 1, 1, 1, 0, 0, 0, 0}, make([]byte, 400)...)
	rand.New(rand.NewSource(345)).Read(wide[16:])
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 800 {
			t.Skip("long enough")
		}
		runSessionOps(t, data)
	})
}
