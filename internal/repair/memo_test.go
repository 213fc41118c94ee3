package repair

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// driveBatch is Batch with its loop driven from the test: the same set-up,
// the same components in the same order, the same seeding, and check
// called after every execute, every instantiation round that changed
// something and every reset between components. It returns the repaired
// relation.
func driveBatch(t *testing.T, d *relation.Relation, sigma []*cfd.Normal, check func(e *engine)) *relation.Relation {
	t.Helper()
	o := (*Options)(nil).withDefaults()
	work := d.Clone()
	store := cfd.Compile(work.Dict(), sigma).NewVioStore(work)
	defer store.Close()
	comps, groups := store.Partition()
	e := newEngine(store, o)
	for _, comp := range comps {
		e.seed(comp, groups)
		for {
			for {
				p, ok := e.pickNext()
				if !ok {
					break
				}
				if err := e.execute(p); err != nil {
					t.Fatal(err)
				}
				check(e)
			}
			if !e.instantiate() {
				break
			}
			check(e)
		}
		e.resetClasses()
		check(e)
	}
	return work
}

// checkMemo asks findV again about every cell the memo holds an answer
// for and requires what FINDV's body computes from the engine's state now.
// It returns how many of those answers findV could give without computing
// — the entries whose version and class size are still current.
func checkMemo(t *testing.T, e *engine) (current int) {
	t.Helper()
	type question struct {
		ix *relation.HashIndex
		b  int
	}
	groupOf := make(map[question]int)
	for gi := range e.support {
		for b, ix := range e.support[gi] {
			if ix != nil {
				groupOf[question{ix, b}] = gi
			}
		}
	}
	for _, fk := range slices.Collect(maps.Keys(e.found)) {
		if f := e.found[fk]; f.ver == e.rel.Version() && f.size == e.classes.Peek(fk.k) {
			current++
		}
		tp, b := e.cell(fk.k)
		v, vio, c, ok := e.findV(groupOf[question{fk.ix, b}], tp, b)
		wv, wvio, wc, wok := e.findVUncached(fk.ix, tp, b)
		if v != wv || vio != wvio || c != wc || ok != wok {
			t.Fatalf("findV(t%d, attr %d) at version %d, |eq| %d: kept (%q, %d, %v, %v), computed (%q, %d, %v, %v)",
				tp.ID, b, e.rel.Version(), e.classes.Peek(fk.k), v, vio, c, ok, wv, wvio, wc, wok)
		}
	}
	return current
}

// findVWalk is FINDV's body as it stood before the support index tallied
// B: the candidates are gathered by walking t's bucket, one Relation.Tuple
// lookup per member, and their support counted by sorting their ids. It is
// the reference findVUncached is held to.
func findVWalk(e *engine, ix *relation.HashIndex, t *relation.Tuple, b int) (relation.Value, int, float64, bool) {
	curID := t.IDAt(b)
	var ids []relation.ValueID
	var buf [8]relation.ValueID
	members, _ := ix.LookupIDs(t.ProjectIDs(buf[:0], ix.Attrs()))
	for _, id := range members {
		if v := e.rel.Tuple(id).IDAt(b); id != t.ID && v != relation.NullID && v != curID {
			ids = append(ids, v)
		}
	}
	slices.Sort(ids)
	var cands []candidate
	for i, id := range ids {
		if i > 0 && ids[i-1] == id {
			cands[len(cands)-1].n++
		} else {
			cands = append(cands, candidate{v: relation.IDValue{Value: e.dict().Value(id), ID: id}, n: 1})
		}
	}
	return e.bestCandidate(t, b, cands)
}

// findViolationWalk is findViolation as it stood before buckets kept id
// order: for every variable-RHS rule it walks t's whole bucket for the
// disagreeing member of smallest id. It is the reference findViolation is
// held to.
func findViolationWalk(e *engine, gi int, t *relation.Tuple) (violation, bool) {
	g := e.groups[gi]
	a := g.A()
	for _, n := range g.MatchingRules(t) {
		if n.ConstantRHS() {
			if cfd.RHSViolates(t.Vals[a], n.TpA) {
				return violation{gi: gi, t: t, rule: n}, true
			}
			continue
		}
		if t.Vals[a].Null {
			continue
		}
		ids, _ := g.Bucket(t)
		var partner *relation.Tuple
		for _, id := range ids {
			if t2 := e.rel.Tuple(id); id != t.ID && !e.eqOnRHS(t, t2, a) && (partner == nil || t2.ID < partner.ID) {
				partner = t2
			}
		}
		if partner != nil {
			return violation{gi: gi, t: t, rule: n, partner: partner}, true
		}
	}
	return violation{}, false
}

// checkWalks holds, at the engine's current state, FINDV's body to its walk
// for every question the memo holds, and findViolation to its walk for
// every tuple of every dirty set — the questions PICKNEXT asks. It also
// requires that no dirty set holds a member below its low word.
func checkWalks(t *testing.T, e *engine) {
	t.Helper()
	for fk := range e.found {
		tp, b := e.cell(fk.k)
		v, vio, c, ok := e.findVUncached(fk.ix, tp, b)
		wv, wvio, wc, wok := findVWalk(e, fk.ix, tp, b)
		if v != wv || vio != wvio || c != wc || ok != wok {
			t.Fatalf("findV(t%d, attr %d) from the tally (%q, %d, %v, %v), by the walk (%q, %d, %v, %v)",
				tp.ID, b, v, vio, c, ok, wv, wvio, wc, wok)
		}
	}
	tuples := e.rel.Tuples()
	for gi, set := range e.dirty {
		for w, word := range set {
			if word != 0 && w < e.low[gi] {
				t.Fatalf("group %d holds dirty tuples in word %d, below its low word %d", gi, w, e.low[gi])
			}
			for ; word != 0; word &= word - 1 {
				tp := tuples[e.byRank[w*64+bits.TrailingZeros64(word)]]
				v, ok := e.findViolation(gi, tp)
				wv, wok := findViolationWalk(e, gi, tp)
				if v != wv || ok != wok {
					t.Fatalf("group %d, t%d: findViolation says %s, the walk %s", gi, tp.ID, describe(v, ok), describe(wv, wok))
				}
			}
		}
	}
}

// describe names a findViolation answer by rule and partner id.
func describe(v violation, ok bool) string {
	switch {
	case !ok:
		return "no violation"
	case v.partner == nil:
		return fmt.Sprintf("%s alone", v.rule.Name)
	}
	return fmt.Sprintf("%s with t%d", v.rule.Name, v.partner.ID)
}

// TestFindVMemoExact is the memo's differential test: on generated §7.1
// databases at the benchmark's settings and on random instances, the
// greedy loop is driven by hand and, after every step, every answer the
// memo would give is held to FINDV's body recomputed from scratch, and
// FINDV's body and findViolation to the walks they replaced (checkWalks).
// The driven run must also repair exactly as Batch does, so the checks did
// not steer it.
func TestFindVMemoExact(t *testing.T) {
	current := 0
	run := func(t *testing.T, d *relation.Relation, sigma []*cfd.Normal) {
		got := driveBatch(t, d, sigma, func(e *engine) {
			current += checkMemo(t, e)
			checkWalks(t, e)
		})
		res, err := Batch(d, sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialize(t, got), serialize(t, res.Repair)) {
			t.Fatal("the driven loop repaired differently from Batch")
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("gen%d", seed), func(t *testing.T) {
			ds, err := gen.New(gen.Config{Size: 500, NoiseRate: 0.05, ConstShare: 0.5, PatternRows: 600, Weights: true, Seed: 29000 + seed})
			if err != nil {
				t.Fatal(err)
			}
			run(t, ds.Dirty, ds.Sigma)
		})
	}
	for seed := int64(1); seed <= 48; seed++ {
		t.Run(fmt.Sprintf("random%d", seed), func(t *testing.T) {
			d, sigma := randInstance(t, rand.New(rand.NewSource(seed)))
			run(t, d, sigma)
		})
	}
	if current == 0 {
		t.Fatal("no step left a memo answer current; the test exercises nothing")
	}
}

// byteSource is a rand.Source64 that draws from the fuzzer's bytes, eight
// at a time, and once they run out continues as splitmix64 from a hash of
// them, so every input draws a valid instance.
type byteSource struct {
	data []byte
	x    uint64
}

func newByteSource(data []byte) *byteSource {
	h := fnv.New64a()
	h.Write(data)
	return &byteSource{data: data, x: h.Sum64()}
}

func (s *byteSource) Uint64() uint64 {
	if len(s.data) >= 8 {
		v := binary.LittleEndian.Uint64(s.data)
		s.data = s.data[8:]
		return v
	}
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *byteSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *byteSource) Seed(int64) {}

// FuzzBatchRepairVsWalk drives BATCHREPAIR over a random instance drawn from
// the fuzzer's bytes — with a few of its tuples deleted first, so that its
// physical order is not id order — and after every step holds the memo to
// FINDV's body (checkMemo) and FINDV's body and findViolation to their
// walks (checkWalks). The repair must satisfy Σ under a fresh Detector,
// leave the input as it was, and equal Batch's.
func FuzzBatchRepairVsWalk(f *testing.F) {
	for _, seed := range []string{"", "\x00\x01\x02\x03\x04\x05\x06\x07", "batchrepair-walk", "\xff\xff\xff\xff\xff\xff\xff\x7f"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(newByteSource(data))
		d, sigma := randInstance(t, rng)
		for range rng.Intn(4) {
			d.Delete(d.Tuples()[rng.Intn(d.Size())].ID)
		}
		before := serialize(t, d)
		got := driveBatch(t, d, sigma, func(e *engine) {
			checkMemo(t, e)
			checkWalks(t, e)
		})
		if !cfd.Satisfies(got, sigma) {
			t.Fatal("the driven repair violates Σ")
		}
		res, err := Batch(d, sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialize(t, d), before) {
			t.Fatal("the repair changed its input")
		}
		if !bytes.Equal(serialize(t, got), serialize(t, res.Repair)) {
			t.Fatal("the driven loop repaired differently from Batch")
		}
	})
}

// TestFindVMemoClearedWithClasses: a class size means nothing across the
// reset between components. Here eq(t0, B) has two members before the
// reset and two others after it, at the same relation version (merges
// write nothing), and findV must cost the second class, not the first.
func TestFindVMemoClearedWithClasses(t *testing.T) {
	s := relation.MustSchema("r", "B", "C", "A")
	d := relation.New(s)
	for _, row := range [][]string{{"b0", "c", "a"}, {"b1", "c", "a"}, {"b1", "c", "a"}, {"zzzz", "c", "a"}} {
		d.MustInsert(relation.NewTuple(0, row...))
	}
	fd, err := cfd.FD("fd", s, []string{"B", "C"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	work := d.Clone()
	store := cfd.Compile(work.Dict(), fd.Normalize()).NewVioStore(work)
	defer store.Close()
	e := newEngine(store, (*Options)(nil).withDefaults())
	ts := work.Tuples()
	t0, ix := ts[0], e.supportIndex(0, 0)
	if err := e.classes.Merge(e.key(t0, 0), e.key(ts[3], 0)); err != nil {
		t.Fatal(err)
	}
	_, _, before, _ := e.findV(0, t0, 0)
	e.resetClasses()
	if err := e.classes.Merge(e.key(t0, 0), e.key(ts[1], 0)); err != nil {
		t.Fatal(err)
	}
	v, vio, c, ok := e.findV(0, t0, 0)
	wv, wvio, wc, wok := e.findVUncached(ix, t0, 0)
	if wc == before {
		t.Fatalf("both classes cost %v; the fixture exercises nothing", wc)
	}
	if v != wv || vio != wvio || c != wc || ok != wok {
		t.Fatalf("findV after the reset: (%q, %d, %v, %v), want (%q, %d, %v, %v)", v, vio, c, ok, wv, wvio, wc, wok)
	}
}
