package cfd

import (
	"slices"
	"sort"
	"sync"

	"cfdclean/internal/relation"
)

// VioStore is a stateful, delta-maintained violation store: detection
// turned from a scan into an index. It owns a Detector over a relation,
// computes the full violation state once at construction, then subscribes
// to the relation's mutation journal and keeps that state incrementally
// up to date — per-group violation lists, per-tuple vio(t) counts, and
// the global total — paying O(affected buckets) per insert, delete or
// update instead of O(|D|) per query. Detect, VioAll, VioTuple and
// Satisfied are answered from maintained state and are always exactly
// equal to what a freshly built Detector would return (the equivalence is
// fuzz-tested in viostore_test.go). An insert the writer has just counted
// clean through VioCounts costs less still: the LHS indexes take the tuple
// in, and no bucket is re-derived.
//
// The store is the paper's IncRepair enabler: the detect→fix→re-detect
// loop of both repair engines runs against one store for the whole run,
// so each round costs O(|Δ|), never O(|D|·rounds). Close detaches the
// store from the relation's journal; after Close the relation can be
// mutated freely without maintenance cost, but the store's answers go
// stale.
//
// VioStore is not safe for concurrent mutation; like the Relation it
// observes, it assumes one mutator. Read-only queries may run
// concurrently with each other but not with mutations; VioCounts, which
// keeps its note, is the mutator's.
type VioStore struct {
	d   *Detector
	rel *relation.Relation

	// vio is vio(t) for every tuple with at least one violation; total is
	// the sum over all tuples (the paper's vio(D), §3.1).
	vio   map[relation.TupleID]int
	total int

	// state[i] holds the maintained violation lists of d.groups[i].
	state []groupVioState

	// rescans counts the bucket rescans deltas asked for; rescansSkipped
	// those the bucket's tally answered without walking its members.
	rescans, rescansSkipped int

	// clean is the tuple VioCounts last found violating nothing (nil when
	// there is none), with the relation version it was counted at, its ids
	// then, and fresh, the first id the dictionary had not yet assigned.
	clean struct {
		t       *relation.Tuple
		version uint64
		ids     []relation.ValueID
		fresh   relation.ValueID
	}

	sc          *scanScratch
	unsubscribe func()
}

// groupVioState is the maintained violation set of one embedded-FD group.
// Variable-RHS groups file their violations by LHS-index bucket (the unit
// of recomputation under deltas), under the number the group's LHS index
// gives the bucket: a number stays with its bucket while the bucket has a
// member, and the rescan of a bucket that has just emptied drops its list
// before the index can hand the number to another key. Nearly every bucket
// is clean, so the lists are sparse: dirty has a bit per bucket number, and
// only a set bit is looked up in byBucket. Constant-only groups need no
// index and file per tuple, since case-1 violations involve one tuple
// alone.
type groupVioState struct {
	total    int
	dirty    bitset
	byBucket map[int32][]Violation
	byTuple  map[relation.TupleID][]Violation
}

// bitset is a growable set of bucket numbers.
type bitset []uint64

func (s bitset) has(b int32) bool {
	w := int(b >> 6) // negative for "no such bucket"
	return uint(w) < uint(len(s)) && s[w]>>(uint(b)&63)&1 != 0
}

func (s *bitset) set(b int32, on bool) {
	w := int(b >> 6)
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	if on {
		(*s)[w] |= 1 << (uint(b) & 63)
	} else {
		(*s)[w] &^= 1 << (uint(b) & 63)
	}
}

// NewVioStore builds the violation store for sigma over rel: one full
// (partition-parallel) detection pass, then subscription to rel's
// mutation journal. The relation must not be mutated concurrently with
// construction.
func NewVioStore(rel *relation.Relation, sigma []*Normal) *VioStore {
	return NewVioStoreWorkers(rel, sigma, 0)
}

// NewVioStoreWorkers is NewVioStore with explicit parallelism for the
// initial scan (and the detector's later whole-database scans): 1 forces
// the sequential path, <= 0 means runtime.GOMAXPROCS(0). The resulting
// state is identical at every setting.
func NewVioStoreWorkers(rel *relation.Relation, sigma []*Normal, workers int) *VioStore {
	return Compile(rel.Dict(), sigma).NewVioStore(rel, workers)
}

// scanWorkerBuckets is the least number of index buckets a worker of the
// store's initial scan is worth (see NewVioStore).
const scanWorkerBuckets = 4096

// NewVioStore is NewVioStoreWorkers over an already compiled Σ; rel's
// dictionary must satisfy the condition Compiled.NewDetector states.
func (c *Compiled) NewVioStore(rel *relation.Relation, workers int) *VioStore {
	d := c.NewDetector(rel)
	d.SetWorkers(workers)
	s := &VioStore{
		d:     d,
		rel:   rel,
		vio:   make(map[relation.TupleID]int),
		state: make([]groupVioState, len(d.groups)),
		sc:    newScanScratch(),
	}

	// Variable-RHS groups need the index on their LHS live for
	// maintenance; build those now and snapshot the bucket work list.
	// Constant-only groups need none (their violations are per-tuple).
	type bucketWork struct {
		gi     int
		b      int32
		ids    []relation.TupleID
		counts *relation.BucketCounts
	}
	buckets := 0
	for gi, g := range d.groups {
		st := &s.state[gi]
		if g.hasVar {
			st.byBucket = make(map[int32][]Violation)
			buckets += d.index(g).Len()
		} else {
			st.byTuple = make(map[relation.TupleID][]Violation)
		}
	}
	work := make([]bucketWork, 0, buckets)
	for gi, g := range d.groups {
		if g.hasVar {
			d.index(g).Buckets(func(b int32, ids []relation.TupleID, counts []relation.BucketCounts) {
				work = append(work, bucketWork{gi: gi, b: b, ids: ids, counts: &counts[g.slot]})
			})
		}
	}

	// Scan buckets in parallel; results land in an index-aligned slice,
	// so the merge below is deterministic regardless of worker count. A
	// bucket scans in a fraction of a microsecond and waking a second
	// thread costs a hundred times that, so a worker is granted per
	// scanWorkerBuckets buckets: a 500-tuple database scans on the
	// caller's goroutine whatever d.workers says.
	results := make([][]Violation, len(work))
	nw := min(d.workers, len(work)/scanWorkerBuckets)
	scanOne := func(w bucketWork, sc *scanScratch) []Violation {
		var vios []Violation
		d.scanIndexBucket(d.groups[w.gi], w.ids, w.counts, sc, func(t *relation.Tuple, n *Normal, with relation.TupleID) {
			vios = append(vios, Violation{T: t.ID, N: n, With: with})
		})
		return vios
	}
	if nw > 1 {
		var wg sync.WaitGroup
		for wk := 0; wk < nw; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				sc := newScanScratch()
				for i := wk; i < len(work); i += nw {
					results[i] = scanOne(work[i], sc)
				}
			}(wk)
		}
		wg.Wait()
	} else {
		for i := range work {
			results[i] = scanOne(work[i], s.sc)
		}
	}
	for i, w := range work {
		if len(results[i]) == 0 {
			continue
		}
		s.state[w.gi].byBucket[w.b] = results[i]
		s.state[w.gi].dirty.set(w.b, true)
		s.account(w.gi, results[i], +1)
	}

	// Constant-only groups: one pass of per-tuple pattern probes.
	for gi, g := range d.groups {
		if g.hasVar {
			continue
		}
		st := &s.state[gi]
		d.scanConstTuples(g, rel.Tuples(), func(t *relation.Tuple, n *Normal, with relation.TupleID) {
			st.byTuple[t.ID] = append(st.byTuple[t.ID], Violation{T: t.ID, N: n, With: with})
		})
		for _, vios := range st.byTuple {
			s.account(gi, vios, +1)
		}
	}

	s.unsubscribe = rel.Subscribe(s.onDelta)
	return s
}

// account applies the vio(t) and total bookkeeping for a violation list
// entering (sign +1) or leaving (sign -1) the store.
func (s *VioStore) account(gi int, vios []Violation, sign int) {
	for _, v := range vios {
		n := s.vio[v.T] + sign
		if n == 0 {
			delete(s.vio, v.T)
		} else {
			s.vio[v.T] = n
		}
	}
	s.state[gi].total += sign * len(vios)
	s.total += sign * len(vios)
}

// Close detaches the store from the relation's mutation journal. The
// store stops maintaining; its answers reflect the state at Close time.
func (s *VioStore) Close() {
	if s.unsubscribe != nil {
		s.unsubscribe()
		s.unsubscribe = nil
	}
}

// Detector returns the underlying detector (shared indices, group
// handles, scratch-tuple probes).
func (s *VioStore) Detector() *Detector { return s.d }

// Relation returns the observed relation.
func (s *VioStore) Relation() *relation.Relation { return s.rel }

// Rescans returns how many bucket rescans the relation's deltas have
// asked of the store since it was built, and how many of those the bucket's
// tally answered without a walk over its members. An insert VioCounts
// counted clean asks for none.
func (s *VioStore) Rescans() (total, skipped int) { return s.rescans, s.rescansSkipped }

// onDelta is the journal hook: it re-derives the violation state of
// exactly the buckets (or tuples) a mutation can affect. Every live index
// hears once of every delta that touches its key or an attribute it
// tallies, and the bucket numbers it answers with address the rescans of
// every variable-RHS group on its LHS.
func (s *VioStore) onDelta(dl relation.Delta) {
	t, a := dl.T, dl.Attr
	if s.countedClean(dl) {
		// t joins its buckets and adds no violation (see VioCounts): the
		// indexes learn of it, and no bucket or tuple is re-derived.
		for li := range s.d.lhs {
			if ix := s.d.lhs[li].ix; ix != nil {
				ix.Add(t)
			}
		}
		return
	}
	var buf, obuf [8]relation.ValueID
	for li := range s.d.lhs {
		lx := &s.d.lhs[li]
		if lx.ix == nil {
			continue // never asked for: nothing to maintain
		}
		switch dl.Kind {
		case relation.DeltaInsert:
			s.rescan(lx, lx.ix.Add(t), t.ProjectIDs(buf[:0], lx.x), -1)
		case relation.DeltaDelete:
			if b := lx.ix.Remove(t); b >= 0 {
				s.rescan(lx, b, t.ProjectIDs(buf[:0], lx.x), -1)
			}
		case relation.DeltaUpdate:
			from, to := lx.ix.Update(t, a, dl.OldID)
			if to < 0 {
				continue
			}
			xids := t.ProjectIDs(buf[:0], lx.x)
			if from == to {
				// a is tallied, not indexed: its own group alone is affected.
				s.rescan(lx, to, xids, a)
				continue
			}
			// t moved buckets: the one it left is rescanned too.
			old := append(obuf[:0], xids...)
			for i, x := range lx.x {
				if x == a {
					old[i] = dl.OldID
				}
			}
			s.rescan(lx, from, old, -1)
			s.rescan(lx, to, xids, -1)
		}
	}
	for gi, g := range s.d.groups {
		switch {
		case g.hasVar:
		case dl.Kind == relation.DeltaDelete:
			s.dropConstTuple(gi, t.ID)
		case dl.Kind == relation.DeltaInsert || g.a == a || containsAttr(g.x, a):
			s.rescanConstTuple(gi, t)
		}
	}
}

// VioCounts is Detector.VioCounts for the store's writer. When t carries ids
// and every group counts zero, the store notes t, the relation version and
// t's ids, and the insert of exactly that tuple at that version (the next
// delta, with no other in between) re-derives nothing. That is exact: the
// members of a bucket match the same pattern rows, so a member disagreeing
// with t on a variable row's A, or a constant row t breaks, would have been
// counted; t therefore adds no violation and changes no recorded one.
func (s *VioStore) VioCounts(t *relation.Tuple, out []int) []int {
	out = s.d.VioCounts(t, out)
	c := &s.clean
	c.t = nil
	if !t.Interned() || slices.ContainsFunc(out, func(n int) bool { return n != 0 }) {
		return out
	}
	c.t, c.version, c.ids = t, s.rel.Version(), c.ids[:0]
	for a := range t.Vals {
		c.ids = append(c.ids, t.IDAt(a))
	}
	if slices.Contains(c.ids, relation.InvalidID) {
		c.fresh = relation.ValueID(s.rel.Dict().Len() + 1)
	}
	return out
}

// countedClean reports whether dl inserts the tuple VioCounts noted, at the
// version it was counted at and with the ids it was counted with. A
// constant that was unseen then (InvalidID) may have been interned since, by
// this insert, under an id the dictionary had not assigned at the count.
// Any delta uses the note up.
func (s *VioStore) countedClean(dl relation.Delta) bool {
	c := &s.clean
	noted := c.t == dl.T && dl.Kind == relation.DeltaInsert
	c.t = nil
	if !noted || s.rel.Version() != c.version+1 {
		return false
	}
	for a, id := range c.ids {
		if now := dl.T.IDAt(a); now != id && (id != relation.InvalidID || now < c.fresh) {
			return false
		}
	}
	return true
}

// rescan recomputes, for bucket b of lx — the bucket whose key is xids —
// the violation list of every variable-RHS group on lx, or only of the
// group whose RHS attribute is only when that is not negative.
func (s *VioStore) rescan(lx *lhsIndex, b int32, xids []relation.ValueID, only int) {
	ids, counts := lx.ix.BucketAt(b)
	var rbuf [16]*groupRow
	rows := rbuf[:0]
	if len(ids) > 0 {
		rows = lx.bucketRows(xids, rows)
	}
	for j, gi := range lx.groups {
		g := s.d.groups[gi]
		if !g.hasVar || only >= 0 && g.a != only {
			continue
		}
		s.rescans++
		st := &s.state[gi]
		had := st.dirty.has(b)
		if had {
			s.account(gi, st.byBucket[b], -1)
		}
		var vios []Violation
		walked := s.d.scanBucket(g, rows, ids, &counts[j], s.sc, func(t *relation.Tuple, n *Normal, with relation.TupleID) {
			vios = append(vios, Violation{T: t.ID, N: n, With: with})
		})
		if !walked {
			s.rescansSkipped++
		}
		if len(vios) == 0 {
			if had {
				delete(st.byBucket, b)
				st.dirty.set(b, false)
			}
			continue
		}
		if len(ids) == 0 {
			panic("cfd: an emptied bucket kept violations under a number about to be reused")
		}
		st.byBucket[b] = vios
		st.dirty.set(b, true)
		s.account(gi, vios, +1)
	}
}

// rescanConstTuple recomputes the case-1 violations of one tuple within a
// constant-only group.
func (s *VioStore) rescanConstTuple(gi int, t *relation.Tuple) {
	s.dropConstTuple(gi, t.ID)
	st := &s.state[gi]
	var vios []Violation
	s.d.scanConstTuples(s.d.groups[gi], []*relation.Tuple{t}, func(t *relation.Tuple, n *Normal, with relation.TupleID) {
		vios = append(vios, Violation{T: t.ID, N: n, With: with})
	})
	if len(vios) == 0 {
		return
	}
	st.byTuple[t.ID] = vios
	s.account(gi, vios, +1)
}

func (s *VioStore) dropConstTuple(gi int, id relation.TupleID) {
	st := &s.state[gi]
	if old := st.byTuple[id]; len(old) > 0 {
		s.account(gi, old, -1)
	}
	delete(st.byTuple, id)
}

func containsAttr(xs []int, a int) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// Detect returns every current violation in the canonical (tuple id,
// rule rank, partner id) order, straight from maintained state — no
// scan. The result is bit-identical to Detector.Detect on the same
// relation contents.
func (s *VioStore) Detect() []Violation {
	out := make([]Violation, 0, s.total)
	for gi := range s.state {
		st := &s.state[gi]
		for _, vios := range st.byBucket {
			out = append(out, vios...)
		}
		for _, vios := range st.byTuple {
			out = append(out, vios...)
		}
	}
	s.d.sortViolations(out)
	return out
}

// EachViolation visits every maintained violation together with the
// index of its embedded-FD group (per Detector.Groups order). Visit
// order is unspecified.
func (s *VioStore) EachViolation(f func(gi int, v Violation)) {
	for gi := range s.state {
		st := &s.state[gi]
		for _, vios := range st.byBucket {
			for _, v := range vios {
				f(gi, v)
			}
		}
		for _, vios := range st.byTuple {
			for _, v := range vios {
				f(gi, v)
			}
		}
	}
}

// VioAll returns a copy of the maintained vio(t) map: every tuple with at
// least one violation and its count. O(dirty tuples), no scan.
func (s *VioStore) VioAll() map[relation.TupleID]int {
	out := make(map[relation.TupleID]int, len(s.vio))
	for id, n := range s.vio {
		out[id] = n
	}
	return out
}

// VioCount returns the maintained vio(t) of the tuple with the given id
// (0 if it violates nothing).
func (s *VioStore) VioCount(id relation.TupleID) int { return s.vio[id] }

// VioTuple returns vio(t). Relation-owned tuples are answered from the
// maintained count in O(1); free-standing scratch probes fall back to the
// detector's index probes (they are not part of the maintained state).
func (s *VioStore) VioTuple(t *relation.Tuple) int {
	if t.Interned() && s.rel.Tuple(t.ID) == t {
		return s.vio[t.ID]
	}
	return s.d.VioTuple(t)
}

// TotalViolations returns the maintained vio(D) in O(1).
func (s *VioStore) TotalViolations() int { return s.total }

// GroupTotal returns the maintained violation count of one embedded-FD
// group (per Detector.Groups order), in O(1). A zero group total is a
// sound fast-path for skipping the group entirely: every violation the
// repair engines can observe is also counted here.
func (s *VioStore) GroupTotal(gi int) int { return s.state[gi].total }

// Satisfied reports rel |= sigma from the maintained total, in O(1).
func (s *VioStore) Satisfied() bool { return s.total == 0 }

// Components returns the connected components of the violation graph:
// tuples are nodes, and an edge joins two tuples that co-occur in a
// violation (the With partner of a variable-RHS violation). Tuples whose
// only violations are single-tuple (constant-RHS) ones form singleton
// components. Each component is sorted ascending by tuple id and the
// components are ordered by their smallest member, so the result is a
// canonical, deterministic partition of the currently violating tuples.
//
// Two tuples in different components share no violation: BATCHREPAIR
// runs its greedy loop one component at a time. Each call builds a
// union-find over the maintained violation lists, in O(vio(D)·α); the
// store keeps no connectivity state between calls.
func (s *VioStore) Components() [][]relation.TupleID {
	parent := make(map[relation.TupleID]relation.TupleID, len(s.vio))
	find := func(id relation.TupleID) relation.TupleID {
		if _, ok := parent[id]; !ok {
			parent[id] = id
		}
		for parent[id] != id {
			parent[id] = parent[parent[id]] // path halving
			id = parent[id]
		}
		return id
	}
	s.EachViolation(func(_ int, v Violation) {
		if v.With != 0 {
			a, b := find(v.T), find(v.With)
			parent[max(a, b)] = min(a, b)
		}
	})
	byRoot := make(map[relation.TupleID][]relation.TupleID)
	for id := range s.vio {
		root := find(id)
		byRoot[root] = append(byRoot[root], id)
	}
	out := make([][]relation.TupleID, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
