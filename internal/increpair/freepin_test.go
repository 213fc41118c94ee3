package increpair

import (
	"math"
	"math/bits"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// bothWays tallies the rounds resolveBothWays has decided.
type bothWays struct {
	pinned   int // freePin answered and bestFix agreed
	repaired int // freePin declined, every open weight positive: bestFix paid
	unasked  int // an open weight was not positive: the round enumerates
}

// resolveBothWays is tupleResolve's loop with every round decided twice — by
// freePin and by the enumeration it stands in for, bestFix — and advanced by
// bestFix's answer. When freePin answers, bestFix must have kept the same
// attributes, at their current values, at no cost; when it declines although
// every open weight is positive, bestFix must have paid for its fix: no free
// pin was missed. It returns the repaired tuple.
func (b *bothWays) resolveBothWays(t testing.TB, e *engine, in *relation.Tuple) *relation.Tuple {
	t.Helper()
	rt := in.Probe(e.repr.Dict())
	if e.repr.Tuple(rt.ID) != nil {
		rt.ID = 0
	}
	var fixed uint64
	full := uint64(1)<<uint(e.arity) - 1
	for fixed != full {
		violated := e.countGroups(rt, false)
		if len(violated) == 0 {
			break
		}
		contested := e.closure(violated) &^ fixed
		if contested == 0 {
			t.Fatalf("tuple %v: a rule is violated within the fixed attributes", in.Vals)
		}
		fixed |= full &^ contested
		var attrs []int
		positive := true
		for m := contested; m != 0; m &= m - 1 {
			a := bits.TrailingZeros64(m)
			attrs = append(attrs, a)
			positive = positive && rt.Weight(a) > 0
		}
		k := min(e.opts.K, len(attrs))
		e.subsets = appendSubsets(e.subsets[:0], attrs, k)
		pin := freePin(e.subsets, k, fixed, violated)
		best := e.bestFix(rt, fixed, attrs, k, violated)
		var kept uint64
		unchanged := true
		for i, a := range best.attrs {
			kept |= 1 << uint(a)
			unchanged = unchanged && relation.StrictEq(best.vals[i].Value, rt.Vals[a])
		}
		switch {
		case !positive:
			b.unasked++
		case pin != 0:
			b.pinned++
			if best.cost != 0 || kept != pin || !unchanged {
				t.Fatalf("tuple %v, fixed %b: freePin keeps %b, the enumeration sets %v to %v at cost %v",
					in.Vals, fixed, pin, best.attrs, best.vals, best.cost)
			}
		default:
			b.repaired++
			if !(best.cost > 0) {
				t.Fatalf("tuple %v, fixed %b: freePin declines, the enumeration sets %v to %v at cost %v",
					in.Vals, fixed, best.attrs, best.vals, best.cost)
			}
		}
		for i, a := range best.attrs {
			rt.SetAt(a, best.vals[i])
			fixed |= 1 << uint(a)
		}
	}
	if got := e.tupleResolve(in); !relation.StrictEqVals(got.Vals, rt.Vals) {
		t.Fatalf("tuple %v: tupleResolve repairs it to %v, the enumeration alone to %v", in.Vals, got.Vals, rt.Vals)
	}
	return rt
}

// paperEngine is an engine over the Fig. 1 database and its four CFDs.
func paperEngine(t testing.TB, k int) *engine {
	t.Helper()
	d := cleanPaperData(t)
	e, err := newEngine(d, cfd.NormalizeAll(paperCFDs(d.Schema())), (&Options{K: k, Workers: 1}).withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFreePinMatchesEnumeration holds the closed-form rounds of TUPLERESOLVE
// to the code they replace: generated churn streams at K 1 to 3 and one or two
// workers, every arrival resolved round by round both ways against the
// relation it is about to enter, then the cases a stream may never produce.
func TestFreePinMatchesEnumeration(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, workers := range []int{1, 2} {
			c := newGenChurn(t, 760, int64(20+k))
			sess := c.open(t, 500, &Options{K: k, Workers: workers})
			var tally bothWays
			for c.next < len(c.ds.Dirty.Tuples()) {
				dels, ops, ins := c.batch(sess, 20, 6, 2)
				if _, _, err := sess.ApplyOps(dels, ops, nil); err != nil {
					t.Fatal(err)
				}
				for i, tu := range ins {
					switch i % 4 {
					case 1: // the weight protocol's range, all of it positive
						for a := range tu.Vals {
							tu.SetWeight(a, 1-c.rng.Float64())
						}
					case 2: // one value the user places no confidence in
						tu.SetWeight(c.rng.Intn(len(tu.Vals)), 0)
					}
					tally.resolveBothWays(t, sess.e, tu)
					if _, _, err := sess.ApplyOps(nil, nil, []*relation.Tuple{tu}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !sess.Satisfied() {
				t.Fatal("session violates Σ")
			}
			sess.Close()
			t.Logf("K=%d workers=%d: %+v", k, workers, tally)
			if tally.pinned < 20 || tally.repaired < 20 || tally.unasked == 0 {
				t.Errorf("K=%d workers=%d: %+v; the stream exercises too little", k, workers, tally)
			}
		}
	}

	s := orderSchema()
	ac, pn, str, ct, st, zip := s.MustIndex("AC"), s.MustIndex("PN"), s.MustIndex("STR"), s.MustIndex("CT"), s.MustIndex("ST"), s.MustIndex("zip")
	null := relation.NullValue.String()
	nulled := map[int]string{ct: null, st: null}
	asIs := func(*relation.Tuple) {}
	for _, tc := range []struct {
		name string
		k    int
		edit func(tu *relation.Tuple) // of Example 5.1's t5
		// rounds is how the greedy's rounds must be decided; a round with a
		// weight that is not positive among its open attributes is unasked.
		rounds bothWays
		// repair lists the attributes TUPLERESOLVE changes with their new
		// values, as recorded from the enumeration before freePin existed.
		repair map[int]string
	}{
		{"Example 5.1, k = 2", 2, asIs, bothWays{2, 1, 0}, nulled},
		{"Example 5.1, k = 3", 3, asIs, bothWays{1, 1, 0}, map[int]string{ac: "212"}},
		{"k beyond the open attributes", 20, asIs, bothWays{0, 1, 0}, map[int]string{ac: "212"}},
		{"an open null stays null", 2, func(tu *relation.Tuple) { tu.Vals[str] = relation.NullValue }, bothWays{2, 1, 0}, nulled},
		{"an unseen constant stays", 2, func(tu *relation.Tuple) { tu.Vals[pn] = relation.S("5550000") }, bothWays{2, 1, 0}, nulled},
		{"W spelled out, all 1", 2, func(tu *relation.Tuple) { tu.SetWeight(0, 1) }, bothWays{2, 1, 0}, nulled},
		{"an open weight of 0", 2, func(tu *relation.Tuple) { tu.SetWeight(ac, 0) }, bothWays{0, 0, 1}, map[int]string{ac: "212"}},
		{"an open weight of -1", 2, func(tu *relation.Tuple) { tu.SetWeight(st, -1) }, bothWays{1, 1, 1}, map[int]string{ct: "PHI", st: "PA", zip: "19014"}},
		{"an open weight of NaN", 2, func(tu *relation.Tuple) { tu.SetWeight(ac, math.NaN()) }, bothWays{0, 1, 2}, nulled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := paperEngine(t, tc.k)
			tu := t5()
			tc.edit(tu)
			var rounds bothWays
			rt := rounds.resolveBothWays(t, e, tu)
			// The one tupleResolve behind resolveBothWays is all e has counted.
			if ix := e.indexStats(); rounds != tc.rounds || ix.FreePins != rounds.pinned || ix.Rounds != rounds.pinned+rounds.repaired+rounds.unasked {
				t.Errorf("rounds %+v, counted FreePins %d of Rounds %d; want %+v", rounds, ix.FreePins, ix.Rounds, tc.rounds)
			}
			for a, v := range rt.Vals {
				want, changes := tc.repair[a]
				if !changes {
					want = tu.Vals[a].String()
				}
				if v.String() != want {
					t.Errorf("%s = %v repaired to %v, want %v", s.Attr(a), tu.Vals[a], v, want)
				}
			}
		})
	}

	// contested counts violated groups, not masks: two rules over {a, b} and
	// one over {c, d}, all violated, and c is kept ahead of a — in freePin
	// as in the enumeration, which resolveBothWays holds it to.
	if got := freePin([]int{0, 1, 2, 3}, 1, 0, []uint64{0b0011, 0b0011, 0b1100}); got != 0b0100 {
		t.Errorf("two groups sharing one mask: freePin keeps %04b, want 0100", got)
	}
	abcd := relation.MustSchema("r", "a", "b", "c", "d")
	d := relation.New(abcd)
	d.MustInsert(relation.NewTuple(0, "a1", "b1", "c1", "d1"))
	d.MustInsert(relation.NewTuple(0, "a2", "b2", "c2", "d2"))
	var fds []*cfd.CFD
	for _, lr := range [][2]string{{"a", "b"}, {"b", "a"}, {"c", "d"}} {
		fd, err := cfd.FD(lr[0]+lr[1], abcd, lr[:1], lr[1:])
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	e, err := newEngine(d, cfd.NormalizeAll(fds), (&Options{K: 1, Workers: 1}).withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var rounds bothWays
	rounds.resolveBothWays(t, e, relation.NewTuple(0, "a1", "b2", "c1", "d2"))
	if rounds != (bothWays{2, 2, 0}) {
		t.Errorf("two groups sharing one mask: rounds %+v, want 2 pinned and 2 repaired", rounds)
	}
}

// FuzzFreePinVsBestFix takes the groups' masks and violation counts, the fixed
// attributes and k from the fuzz input and holds freePin to bestValsFor's
// validity rule, transcribed: at the unchanged values every group counts what
// countGroups counted, however it meets C, and a positive count within
// fixed ∪ C rejects C; of the C left, fix.better keeps the first that meets
// the fewest violated groups. CI runs it for ten seconds on every push.
func FuzzFreePinVsBestFix(f *testing.F) {
	f.Add([]byte{0b0011, 1, 0b0011, 2, 0b1100, 1}, uint8(0), uint8(0))
	f.Add([]byte{0b0011, 1, 0b0110, 0, 0b1100, 1}, uint8(0b0001), uint8(1))
	// Example 5.1 over (AC, PN, STR, CT, ST, zip): ϕ1's CT and ST violated.
	f.Add([]byte{0b000111, 0, 0b001011, 1, 0b010011, 1, 0b101000, 0, 0b110000, 0, 0b101100, 0}, uint8(0b11000000), uint8(1))
	f.Add([]byte{0xff, 1}, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, groups []byte, fixed8, k8 uint8) {
		var masks, violated []uint64
		var cur []int
		for i := 0; i+1 < len(groups) && i < 64; i += 2 {
			masks, cur = append(masks, uint64(groups[i])), append(cur, int(groups[i+1]%3))
			if cur[len(cur)-1] > 0 {
				violated = append(violated, masks[len(masks)-1])
			}
		}
		fixed := uint64(fixed8)
		var attrs []int
		for a := 0; a < 8; a++ {
			if fixed>>uint(a)&1 == 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) == 0 {
			t.Skip()
		}
		k := min(1+int(k8%4), len(attrs))
		subsets := appendSubsets(nil, attrs, k)
		var want uint64
		fewest := 0
		for i := 0; i < len(subsets); i += k {
			var cmask uint64
			for _, a := range subsets[i : i+k] {
				cmask |= 1 << uint(a)
			}
			checkMask := fixed | cmask
			valid, contested := true, 0
			for g, mask := range masks {
				if check := mask&checkMask == mask; cur[g] > 0 && check {
					valid = false
				}
				if cur[g] > 0 && mask&cmask != 0 {
					contested++
				}
			}
			if valid && (want == 0 || contested < fewest) {
				want, fewest = cmask, contested
			}
		}
		if got := freePin(subsets, k, fixed, violated); got != want {
			t.Fatalf("masks %b counts %v fixed %b k %d: freePin keeps %b, the rule keeps %b", masks, cur, fixed, k, got, want)
		}
	})
}
