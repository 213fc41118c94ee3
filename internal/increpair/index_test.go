package increpair

import (
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// genChurn is a seeded stream of mixed batches over a generated dataset:
// a session opens over the first base tuples of the clean Dopt, and the
// rest of the dirty D arrives batch by batch beside random deletes and
// cell updates of live tuples. Key-like attributes (id, name, PN, STR,
// zip) have domains in the hundreds and lose values to nearly every
// delete; the categorical ones hold a few dozen.
type genChurn struct {
	ds   *gen.Dataset
	rng  *rand.Rand
	next int // position in ds.Dirty of the next arrival
}

func newGenChurn(t testing.TB, size int, seed int64) *genChurn {
	t.Helper()
	ds, err := gen.New(gen.Config{Size: size, NoiseRate: 0.08, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &genChurn{ds: ds, rng: rand.New(rand.NewSource(seed))}
}

func (c *genChurn) open(t testing.TB, base int, opts *Options) *Session {
	t.Helper()
	d := relation.New(c.ds.Schema)
	for _, tu := range c.ds.Opt.Tuples()[:base] {
		d.MustInsert(tu.Clone())
	}
	c.next = base
	sess, err := NewSession(d, c.ds.Sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// batch draws the next mixed batch against the session's live tuples.
func (c *genChurn) batch(sess *Session, inserts, deletes, sets int) ([]relation.TupleID, []SetOp, []*relation.Tuple) {
	live := sess.Current().Tuples()
	perm := c.rng.Perm(len(live))
	if deletes+sets > len(perm) {
		deletes, sets = len(perm)/2, 0
	}
	var dels []relation.TupleID
	for _, i := range perm[:deletes] {
		dels = append(dels, live[i].ID)
	}
	var ops []SetOp
	for _, i := range perm[deletes : deletes+sets] {
		a := c.rng.Intn(c.ds.Schema.Arity())
		donor := live[c.rng.Intn(len(live))]
		ops = append(ops, SetOp{ID: live[i].ID, Attr: a, Value: donor.Vals[a]})
	}
	var ins []*relation.Tuple
	dirty := c.ds.Dirty.Tuples()
	for ; inserts > 0 && c.next < len(dirty); inserts-- {
		tu := dirty[c.next].Clone()
		tu.ID = 0
		ins = append(ins, tu)
		c.next++
	}
	return dels, ops, ins
}

// mangle returns a near-miss of s, the kind of probe TUPLERESOLVE sends.
func mangle(rng *rand.Rand, s string) string {
	if len(s) < 2 {
		return s + "x"
	}
	b := []byte(s)
	i := rng.Intn(len(b) - 1)
	switch rng.Intn(3) {
	case 0:
		b[i], b[i+1] = b[i+1], b[i]
	case 1:
		b[i] = 'q'
	default:
		b = append(b[:i], b[i+1:]...)
	}
	return string(b)
}

// osa is the restricted Damerau–Levenshtein (optimal string alignment)
// distance as a textbook gives it: the whole (|a|+1)×(|b|+1) matrix over
// runes, no cutoff, nothing shared with package strdist — but for its
// contract that distinct strings are apart, which the matrix misses where
// invalid bytes decode to one rune.
func osa(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	w := len(rb) + 1
	d := make([]int, (len(ra)+1)*w)
	for i := 0; i <= len(ra); i++ {
		d[i*w] = i
	}
	for j := 0; j <= len(rb); j++ {
		d[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			sub := 1
			if ra[i-1] == rb[j-1] {
				sub = 0
			}
			c := min(d[(i-1)*w+j]+1, d[i*w+j-1]+1, d[(i-1)*w+j-1]+sub)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				c = min(c, d[(i-2)*w+j-2]+1)
			}
			d[i*w+j] = c
		}
	}
	if a != b {
		return max(1, d[len(ra)*w+len(rb)])
	}
	return d[len(ra)*w+len(rb)]
}

// oracleNearest is the contract of engine.nearest read off its sentence:
// the up to k values of dom within maxRadius of q, by increasing (distance,
// value) — every value measured in full, the lot sorted.
func oracleNearest(dom []string, q string, k int) []string {
	type hit struct {
		v string
		d int
	}
	var hits []hit
	for _, v := range dom {
		if d := osa(q, v); d <= maxRadius {
			hits = append(hits, hit{v, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].v < hits[j].v
	})
	out := []string{}
	for _, h := range hits[:min(k, len(hits))] {
		out = append(out, h.v)
	}
	return out
}

// askNearest is engine.nearest(a, q) as strings; it fails the test if a
// result is not a live value of the domain or carries another value's id.
func askNearest(t testing.TB, e *engine, a int, q string) []string {
	t.Helper()
	out := []string{}
	for _, h := range e.nearest(a, q) {
		v := h.v
		if v.Null || e.repr.DomainCount(a, v.Str) == 0 {
			t.Fatalf("attr %d: nearest(%q) offers %v, which no tuple carries", a, q, v.Value)
		}
		if id, ok := e.repr.Dict().LookupStr(v.Str); !ok || id != v.ID {
			t.Fatalf("attr %d: nearest(%q) pairs %q with id %d, the dictionary says %d", a, q, v.Str, v.ID, id)
		}
		out = append(out, v.Str)
	}
	return out
}

// domainEngine returns an engine over a relation whose attribute 0 has
// exactly the domain dom, answering nearest with k values.
func domainEngine(t testing.TB, k int, dom []string) *engine {
	t.Helper()
	s := relation.MustSchema("r", "a", "b")
	r := relation.New(s)
	for _, v := range dom {
		r.MustInsert(relation.NewTuple(0, v, "x"))
	}
	fd, err := cfd.FD("fd", s, []string{"a"}, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(r, cfd.NormalizeAll([]*cfd.CFD{fd}), (&Options{NearestK: k}).withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestNearestIsExactTopK holds engine.nearest to an oracle that is not the
// code under test — a textbook distance and a sort over ActiveDomain — with
// no tolerance. First the contract value by value, the oracle held to the
// same answers; then through random insert/delete/update batches, a deep
// purge and regrowth: after every batch and for every attribute Σ
// constrains, the two agree on near-misses of live values and on every
// value the batch just deleted, and no result is a value no tuple carries
// (§3.1: repairs draw from adom ∪ null).
func TestNearestIsExactTopK(t *testing.T) {
	long := strings.Repeat("ab", 40) // 80 bytes: past the bit-vector kernel's word
	for _, tc := range []struct {
		name string
		dom  []string
		q    string
		k    int
		want []string
	}{
		// Restricted DL is no metric around an edited transposition
		// ("13.17" → "31.16" is 2), and a BK-tree over these three values
		// pruned "31.16" away behind "33.16", which loses the tie.
		{"transposition triple", []string{"173.17", "31.16", "33.16"}, "13.17", 2, []string{"173.17", "31.16"}},
		{"radius", []string{"ijklmnop", "ijklmnopq"}, "abcdefgh", 4, []string{"ijklmnop"}},
		{"radius by length alone", []string{"abcdefghi", "abcdefghij"}, "a", 4, []string{"abcdefghi"}},
		{"ties by value", []string{"abg", "abd", "abf", "abc", "abe"}, "abx", 4, []string{"abc", "abd", "abe", "abf"}},
		{"a late nearer value evicts the last", []string{"abd", "abe", "abf", "abg", "abx"}, "abx", 4, []string{"abx", "abd", "abe", "abf"}},
		{"itself first", []string{"alphb", "alpha", "beta"}, "alpha", 2, []string{"alpha", "alphb"}},
		{"fewer than k", []string{"NYC", "PHI"}, "NYX", 4, []string{"NYC", "PHI"}},
		{"empty domain", nil, "x", 4, []string{}},
		{"empty query", []string{"", "a", "123456789"}, "", 4, []string{"", "a"}},
		{"runes, not bytes", []string{"Münchén", "Muenchen", "Minchin"}, "München", 2, []string{"Münchén", "Minchin"}},
		{"transposed runes", []string{"Köln", "Kölnn"}, "Klön", 1, []string{"Köln"}},
		{"beyond 64 bytes", []string{long[1:], long + "x", long[:70], "ab"}, long, 4, []string{long + "x", long[1:]}},
		{"long and not ASCII", []string{long + "é", long + "éé", "é" + long[:60]}, long + "e", 4, []string{long + "é", long + "éé"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := domainEngine(t, tc.k, tc.dom)
			if got := askNearest(t, e, 0, tc.q); !slices.Equal(got, tc.want) {
				t.Errorf("nearest(%q) = %q, want %q", tc.q, got, tc.want)
			}
			if got := oracleNearest(tc.dom, tc.q, tc.k); !slices.Equal(got, tc.want) {
				t.Errorf("the oracle says %q, want %q", got, tc.want)
			}
		})
	}

	c := newGenChurn(t, 1100, 11)
	sess := c.open(t, 500, nil)
	defer sess.Close()
	e := sess.e
	var constrained uint64
	for _, gi := range e.groups {
		constrained |= gi.mask
	}

	probes, nonEmpty := 0, 0
	step := func(inserts, deletes, sets int) {
		t.Helper()
		dels, ops, ins := c.batch(sess, inserts, deletes, sets)
		var gone []*relation.Tuple
		for _, id := range dels {
			gone = append(gone, sess.Current().Tuple(id))
		}
		if _, _, err := sess.ApplyOps(dels, ops, ins); err != nil {
			t.Fatal(err)
		}
		if !sess.Satisfied() {
			t.Fatal("session violates Σ")
		}
		for a := 0; a < e.arity; a++ {
			if constrained>>uint(a)&1 == 0 {
				continue
			}
			dom := e.repr.ActiveDomain(a)
			var qs []string
			for i := 0; i < 6 && len(dom) > 0; i++ {
				qs = append(qs, mangle(c.rng, dom[c.rng.Intn(len(dom))]))
			}
			for _, tu := range gone {
				if v := tu.Vals[a]; !v.Null && !slices.Contains(qs, v.Str) {
					qs = append(qs, v.Str)
				}
			}
			for _, q := range qs {
				got, want := askNearest(t, e, a, q), oracleNearest(dom, q, e.opts.NearestK)
				if !slices.Equal(got, want) {
					t.Fatalf("attr %d, %d values: nearest(%q) = %q, the oracle says %q", a, len(dom), q, got, want)
				}
				probes++
				if len(got) > 0 {
					nonEmpty++
				}
			}
		}
	}
	// 50 mixed batches at a steady size, then a purge that empties most of
	// every key-like domain, then regrowth.
	for i := 0; i < 50; i++ {
		step(10, 10, 3)
	}
	for sess.Current().Size() > 150 {
		step(2, 80, 2)
	}
	for i := 0; i < 5; i++ {
		step(30, 5, 3)
	}
	if probes < 5000 || nonEmpty < probes/2 {
		t.Fatalf("%d probes, %d with an answer; the fixture exercises too little", probes, nonEmpty)
	}
	st := sess.IndexStats()
	if st.Nearest == 0 || st.Visited == 0 || st.FreePins == 0 || st.FreePins >= st.Rounds {
		t.Errorf("counters did not move: %+v", st)
	}
	t.Logf("%d probes, %d with an answer; %+v", probes, nonEmpty, st)
}

// FuzzNearestVsOracle takes domain, probe and k from the fuzz input: the
// domain is the lines of dom, some of them deleted again so the dense list
// has been through its swap-delete. CI runs it for ten seconds on every
// push.
func FuzzNearestVsOracle(f *testing.F) {
	f.Add("173.17\n31.16\n33.16", "13.17", uint8(2), uint8(0))
	f.Add("alpha\nalphb\nbeta\n\ngamma", "alpha", uint8(4), uint8(5))
	f.Add("Köln\nKölnn\nMünchen\n\xff\xfe", "Klön", uint8(1), uint8(2))
	f.Add("\xfe\n\xff\n\xfd", "\xff", uint8(1), uint8(0))
	f.Add(strings.Repeat("ab", 40)+"\n"+strings.Repeat("ab", 39), strings.Repeat("ba", 40), uint8(3), uint8(0))
	// The profile bound's edges: classes that fold together ('0' and 'p'),
	// counts past its cap of two, the empty string on either side.
	f.Add("p\n0\nq\n00\npp", "0", uint8(2), uint8(0))
	f.Add("abbb\naaab\naabb\nab\naaaabbbb", "aaab", uint8(3), uint8(0))
	f.Add("\na\nab\nabc", "", uint8(4), uint8(0))
	f.Add("\na\nab\nabc", "abc", uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, dom, q string, k8, drop uint8) {
		if len(dom) > 2048 || len(q) > 128 {
			t.Skip()
		}
		vals := strings.Split(dom, "\n")
		k := 1 + int(k8%8)
		e := domainEngine(t, k, vals)
		// Delete every drop-th tuple; a value goes with its last carrier.
		for i, tu := range slices.Clone(e.repr.Tuples()) {
			if drop > 0 && i%int(drop) == 0 {
				e.repr.Delete(tu.ID)
			}
		}
		live := e.repr.ActiveDomain(0)
		if got, want := askNearest(t, e, 0, q), oracleNearest(live, q, k); !slices.Equal(got, want) {
			t.Fatalf("nearest(%q, k=%d) over %q = %q, the oracle says %q", q, k, live, got, want)
		}
	})
}

// TestNearestAllocs: a query allocates nothing, whatever the domain's size —
// its result is the engine's buffer.
func TestNearestAllocs(t *testing.T) {
	for _, n := range []int{64, 5000} {
		e := domainEngine(t, 4, benchWords(n))
		got := testing.AllocsPerRun(50, func() { e.nearest(0, "abcdefa") })
		if got > 0 {
			t.Errorf("|adom| = %d: nearest allocates %v times, want 0", n, got)
		}
	}
}

// benchWords returns n distinct words over a six-letter alphabet, so a
// query has many values within the radius to rank.
func benchWords(n int) []string {
	rng := rand.New(rand.NewSource(3))
	seen := make(map[string]bool, n)
	words := make([]string, 0, n)
	for len(words) < n {
		b := make([]byte, 5+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	return words
}

// permutedWords returns n distinct orderings of one multiset of letters:
// every word has the same character profile.
func permutedWords(n int) []string {
	rng := rand.New(rand.NewSource(3))
	b := []byte("aabbccddeef")
	seen := make(map[string]bool, n)
	words := make([]string, 0, n)
	for len(words) < n {
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if w := string(b); !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	return words
}

// BenchmarkNearest is one similarity query at three domain sizes — the
// categorical attributes, the key-like ones of a test fixture, and the
// largest domain of the benchmark workloads — and the worst case at the
// largest: every value and every query a permutation of one multiset, so
// the profile bound rules nothing out and filing by it is pure overhead.
// measured/query is the kernel calls a query made.
func BenchmarkNearest(b *testing.B) {
	for _, bc := range []struct {
		name  string
		words []string
		query func(rng *rand.Rand, w string) string
	}{
		{"adom=64", benchWords(64), mangle},
		{"adom=2000", benchWords(2000), mangle},
		{"adom=5000", benchWords(5000), mangle},
		{"adversarial", permutedWords(5000), func(rng *rand.Rand, w string) string {
			p := []byte(w)
			rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			return string(p)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := len(bc.words)
			e := domainEngine(b, 4, bc.words)
			rng := rand.New(rand.NewSource(4))
			from := e.stats.Measured
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.nearest(0, bc.query(rng, bc.words[i%n]))
			}
			b.ReportMetric(float64(e.stats.Measured-from)/float64(b.N), "measured/query")
		})
	}
}

// dirtyArrivals opens a session over the first 600 tuples of a generated
// clean database and returns it with those of the 300 noisy arrivals that
// violate Σ against it.
func dirtyArrivals(t testing.TB) (*Session, []*relation.Tuple) {
	t.Helper()
	c := newGenChurn(t, 900, 5)
	sess := c.open(t, 600, nil)
	var dirty []*relation.Tuple
	for _, tu := range c.ds.Dirty.Tuples()[600:] {
		p := tu.Clone()
		p.ID = 0
		if len(sess.e.countGroups(p.Probe(sess.e.repr.Dict()), false)) > 0 {
			dirty = append(dirty, p)
		}
	}
	if len(dirty) < 5 {
		t.Fatalf("%d dirty arrivals; the fixture exercises too little", len(dirty))
	}
	return sess, dirty
}

// BenchmarkTupleResolveDirty is the layer cell of the dirty arrival: one op
// resolves every dirty arrival of the fixture once through a warm engine.
func BenchmarkTupleResolveDirty(b *testing.B) {
	sess, dirty := dirtyArrivals(b)
	defer sess.Close()
	e := sess.e
	for _, p := range dirty {
		e.tupleResolve(p)
	}
	from := e.indexStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range dirty {
			e.tupleResolve(p)
		}
	}
	arrivals := float64(b.N * len(dirty))
	to := e.indexStats()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/arrivals, "µs/arrival")
	b.ReportMetric(float64(to.Rounds-from.Rounds)/arrivals, "rounds/arrival")
	b.ReportMetric(float64(to.FreePins-from.FreePins)/float64(to.Rounds-from.Rounds), "freepins/round")
}

// BenchmarkWriteCSV is the read-out path on the benchmark's relation size:
// 11 000 generated rows (a fifth of them with repaired or noisy cells) to
// io.Discard, through relation.WriteCSV and through Session.Dump's pinned
// view.
func BenchmarkWriteCSV(b *testing.B) {
	c := newGenChurn(b, 11000, 7)
	sess, err := NewSession(c.ds.Dirty.Clone(), c.ds.Sigma, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	for _, bc := range []struct {
		name  string
		write func() error
	}{
		{"WriteCSV", func() error { return relation.WriteCSV(c.ds.Dirty, io.Discard) }},
		{"Session.Dump", func() error { return sess.Dump(io.Discard) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.write(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*11000/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestTupleResolveAllocBudget pins what one TUPLERESOLVE of a dirty arrival
// allocates once the engine is warm. The greedy rounds reuse the engine's
// buffers — violated masks, attribute subsets, candidates per attribute,
// the similarity search's hits, the violation-count table, the odometers —
// and the rounds that pin unchanged attributes touch none of them, so what
// is left is per tuple, not per round, subset or combination: the trial
// tuple and the rule slices behind the candidates.
func TestTupleResolveAllocBudget(t *testing.T) {
	sess, dirty := dirtyArrivals(t)
	defer sess.Close()
	e := sess.e
	worst := 0.0
	for _, p := range dirty {
		e.tupleResolve(p) // warm: buffers grown, memos filled
		n := testing.AllocsPerRun(10, func() { e.tupleResolve(p) })
		worst = max(worst, n)
	}
	t.Logf("%d dirty arrivals, at most %v allocations per tupleResolve", len(dirty), worst)
	// Measured: at most 9 on this fixture, 14 under the race detector, and
	// the budget is that + 25 % (66 while every round enumerated and each
	// similarity query allocated its memo entry; 1 728 before the buffers
	// were reused).
	if worst > 17 {
		t.Errorf("a tupleResolve allocates %v times, budget 17", worst)
	}
}

// cleanArrivalAllocs opens a session over the first 600 tuples of a
// generated clean database, sends it the other 300 — clean too: nothing to
// resolve — in batches of 100, and returns the heap allocations per arrival
// of the last two ApplyOps calls (the first warms the engine's buffers).
func cleanArrivalAllocs(t testing.TB) float64 {
	t.Helper()
	c := newGenChurn(t, 900, 5)
	sess := c.open(t, 600, nil)
	defer sess.Close()
	var arrivals []*relation.Tuple
	for _, tu := range c.ds.Opt.Tuples()[600:] {
		p := tu.Clone()
		p.ID = 0
		arrivals = append(arrivals, p)
	}
	apply := func(batch []*relation.Tuple) {
		res, _, err := sess.ApplyOps(nil, nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Changes != 0 || !sess.Satisfied() {
			t.Fatalf("a clean arrival was changed (%d cells) or left the session dirty", res.Changes)
		}
	}
	apply(arrivals[:100])
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	apply(arrivals[100:200])
	apply(arrivals[200:])
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / 200
}

// TestCleanArrivalAllocs pins what the common case of a stream costs the
// allocator: a clean arrival through ApplyOps — the probe, one vio(t) over
// the shared LHS indexes, the insert and the store's delta. What is left
// is the tuple itself (the probe copy that is inserted, its values, the
// one ids slice — Insert keeps the probe's — and weights), its slot in a
// bucket of each live index — one index per distinct X, not per embedded
// FD — and the batch's own bookkeeping.
func TestCleanArrivalAllocs(t *testing.T) {
	got := cleanArrivalAllocs(t)
	t.Logf("%.2f allocations per clean arrival", got)
	// Measured: 5.05, 5.28 under the race detector (6.08 while Insert
	// interned a second ids slice, 8.24 with an index per embedded FD); the
	// budget is that + 15 %.
	if got > 5.8 {
		t.Errorf("a clean arrival allocates %.2f times, budget 5.8", got)
	}
}

// TestCleanArrivalsSkipRescans: an arrival whose first count is all zero is
// inserted without recounting a bucket — a batch of clean arrivals leaves
// the store's rescan counter where it was — while the insert of a dirty
// arrival, repaired, still recounts its buckets.
func TestCleanArrivalsSkipRescans(t *testing.T) {
	sess, dirty := dirtyArrivals(t)
	defer sess.Close()
	c := newGenChurn(t, 900, 5)
	var clean []*relation.Tuple
	for _, tu := range c.ds.Opt.Tuples()[600:700] {
		p := tu.Clone()
		p.ID = 0
		clean = append(clean, p)
	}
	before := sess.IndexStats()
	res, _, err := sess.ApplyOps(nil, nil, clean)
	if err != nil {
		t.Fatal(err)
	}
	after := sess.IndexStats()
	if res.Changes != 0 || after.VioProbes == before.VioProbes {
		t.Fatalf("the clean batch changed %d cells in %d probes; the fixture exercises nothing", res.Changes, after.VioProbes-before.VioProbes)
	}
	if after.BucketRescans != before.BucketRescans {
		t.Errorf("100 clean arrivals: bucket rescans %d → %d; want it unchanged", before.BucketRescans, after.BucketRescans)
	}
	if _, _, err := sess.ApplyOps(nil, nil, dirty[:1]); err != nil {
		t.Fatal(err)
	}
	if got := sess.IndexStats().BucketRescans; got == after.BucketRescans {
		t.Errorf("a dirty arrival was inserted without a bucket rescan")
	}
}

// BenchmarkCleanArrival is the layer cell of the clean arrival on the
// benchmark's inc_stream shape: a session over a 5 000-tuple base under
// §7.1's Σ with 600 pattern rows, sent 100-tuple ApplyOps batches of
// arrivals that violate nothing. A fresh session is opened, off the clock,
// every 20 batches.
func BenchmarkCleanArrival(b *testing.B) {
	const base, batch, batches = 5000, 100, 20
	ds, err := gen.New(gen.Config{Size: base + batches*batch, NoiseRate: 0.05, PatternRows: 600, Weights: true, Seed: 34})
	if err != nil {
		b.Fatal(err)
	}
	opt := ds.Opt.Tuples()
	var arrivals [][]*relation.Tuple
	for i := 0; i < batches; i++ {
		var ins []*relation.Tuple
		for _, tu := range opt[base+i*batch : base+(i+1)*batch] {
			p := tu.Clone()
			p.ID = 0
			ins = append(ins, p)
		}
		arrivals = append(arrivals, ins)
	}
	open := func() *Session {
		d := relation.New(ds.Schema)
		for _, tu := range opt[:base] {
			d.MustInsert(tu.Clone())
		}
		sess, err := NewSession(d, ds.Sigma, nil)
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}
	sess := open()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == batches {
			b.StopTimer()
			sess.Close()
			sess, next = open(), 0
			b.StartTimer()
		}
		res, _, err := sess.ApplyOps(nil, nil, arrivals[next])
		if err != nil || res.Changes != 0 {
			b.Fatalf("batch %d: %v, %d cells changed", next, err, res.Changes)
		}
		next++
	}
	b.StopTimer()
	sess.Close()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "µs/arrival")
}
