package cfd

import (
	"cmp"
	"slices"

	"cfdclean/internal/relation"
)

// VioStore is a stateful, delta-maintained violation store: detection
// turned from a scan into an index, and the one whole-database detector
// (a one-shot question builds a store, reads it and closes it: OneShot).
// It owns a Detector over a relation, counts the violations once at
// construction, then subscribes to the relation's mutation journal and
// keeps the counts up to date — per violating LHS bucket (or, in a
// constant-only group, per violating tuple), per group, and the global
// vio(D) — paying O(rows matching the affected buckets) per insert,
// delete or update, with no member walked: in a variable-RHS group a
// bucket's violations follow from its tally (groupPlan.bucketVios).
// TotalViolations, GroupTotal and Satisfied are O(1); VioCount answers
// vio(t) through the detector's probes; Detect, VioAll and Partition
// re-derive the violations of the dirty buckets and tuples alone, through
// scan, the one code that walks violations. Every answer is exactly what a
// scan of every bucket of the current relation returns (the equivalence
// is fuzz-tested in viostore_test.go against such a scan). An insert the
// writer has just counted clean through VioCounts costs less still: the
// LHS indexes take the tuple in, and no bucket is recounted.
//
// The store is the paper's IncRepair enabler: the detect→fix→re-detect
// loop of both repair engines runs against one store for the whole run,
// so each round costs O(|Δ|), never O(|D|·rounds). Close detaches the
// store from the relation's journal; after Close the relation can be
// mutated freely without maintenance cost, but the store's counts go
// stale, and its other answers are not to be asked once the relation has
// changed.
//
// VioStore is not safe for concurrent mutation; like the Relation it
// observes, it assumes one mutator. Read-only queries may run
// concurrently with each other but not with mutations; VioCounts, which
// keeps its note, is the mutator's.
type VioStore struct {
	d   *Detector
	rel *relation.Relation

	// total is the paper's vio(D) (§3.1); state[i] holds the counts of
	// d.groups[i].
	total int
	state []groupVioState

	// rescans counts the bucket recounts deltas asked for.
	rescans int

	// clean is the tuple VioCounts last found violating nothing (nil when
	// there is none), with the relation version it was counted at, its ids
	// then, and fresh, the first id the dictionary had not yet assigned.
	clean struct {
		t       *relation.Tuple
		version uint64
		ids     []relation.ValueID
		fresh   relation.ValueID
	}

	unsubscribe func()
}

// groupVioState counts the violations of one embedded-FD group. A
// variable-RHS group counts them per LHS-index bucket (the unit of
// recounting under deltas), under the number the group's LHS index gives
// the bucket: a number stays with its bucket while the bucket has a
// member, and the recount of a bucket that has just emptied drops its
// count before the index can hand the number to another key. A
// constant-only group needs no index and counts per tuple, since case-1
// violations involve one tuple alone. Either map holds violating entries
// only.
type groupVioState struct {
	total   int
	buckets map[int32]int
	tuples  map[relation.TupleID]int
}

// NewVioStore builds the violation store for sigma over rel: one count of
// every LHS bucket's tally, then subscription to rel's mutation journal.
// The relation must not be mutated concurrently with construction.
func NewVioStore(rel *relation.Relation, sigma []*Normal) *VioStore {
	return Compile(rel.Dict(), sigma).NewVioStore(rel)
}

// NewVioStore is NewVioStore over an already compiled Σ; rel's dictionary
// must be the one c was compiled against or a clone of it made afterwards
// (clones preserve ids), so that the compiled constants mean the same
// values.
func (c *Compiled) NewVioStore(rel *relation.Relation) *VioStore {
	d := c.newDetector(rel)
	s := &VioStore{
		d:     d,
		rel:   rel,
		state: make([]groupVioState, len(d.groups)),
	}
	// Constant-only groups need no index (their violations are per-tuple);
	// variable-RHS groups need the index on their LHS live for maintenance:
	// build those now and count every bucket.
	for gi, g := range d.groups {
		st := &s.state[gi]
		if g.hasVar {
			st.buckets = make(map[int32]int)
			continue
		}
		st.tuples = make(map[relation.TupleID]int)
		d.scanConstTuples(g, rel.Tuples(), func(t *relation.Tuple, _ *Normal, _ relation.TupleID) {
			st.tuples[t.ID]++
			s.add(gi, 1)
		})
	}
	var buf [8]relation.ValueID
	for li := range d.lhs {
		lx := &d.lhs[li]
		j := slices.IndexFunc(lx.groups, func(gi int) bool { return d.groups[gi].hasVar })
		if j < 0 {
			continue
		}
		d.index(d.groups[lx.groups[j]]).Buckets(func(b int32, ids []relation.TupleID, _ []relation.BucketCounts) {
			s.countBucket(lx, b, d.rel.Tuple(ids[0]).ProjectIDs(buf[:0], lx.x), -1)
		})
	}
	s.rescans = 0 // construction asked for no delta
	s.unsubscribe = rel.Subscribe(s.onDelta)
	return s
}

// add moves group gi's total and vio(D) by n.
func (s *VioStore) add(gi, n int) {
	s.state[gi].total += n
	s.total += n
}

// Close detaches the store from the relation's mutation journal. The
// store stops maintaining: its counts reflect the state at Close time,
// and its listings and vio(t), which read the relation and the indexes,
// are not to be asked once the relation has changed.
func (s *VioStore) Close() {
	if s.unsubscribe != nil {
		s.unsubscribe()
		s.unsubscribe = nil
	}
}

// Detector returns the underlying detector (shared indices, group
// handles, scratch-tuple probes), whose indexes the store maintains.
func (s *VioStore) Detector() *Detector { return s.d }

// Relation returns the observed relation.
func (s *VioStore) Relation() *relation.Relation { return s.rel }

// Rescans returns how many bucket recounts the relation's deltas have
// asked of the store since it was built: one per variable-RHS group of
// every bucket a delta touched, each answered from the bucket's tally. An
// insert VioCounts counted clean asks for none.
func (s *VioStore) Rescans() int { return s.rescans }

// onDelta is the journal hook: it recounts the violations of exactly the
// buckets (or tuples) a mutation can affect. Every live index hears once
// of every delta that touches its key or an attribute it tallies, and the
// bucket numbers it answers with address the recounts of every
// variable-RHS group on its LHS.
func (s *VioStore) onDelta(dl relation.Delta) {
	t, a := dl.T, dl.Attr
	if s.countedClean(dl) {
		// t joins its buckets and adds no violation (see VioCounts): the
		// indexes learn of it, and no bucket or tuple is recounted.
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
			s.countBucket(lx, lx.ix.Add(t), t.ProjectIDs(buf[:0], lx.x), -1)
		case relation.DeltaDelete:
			if b := lx.ix.Remove(t); b >= 0 {
				s.countBucket(lx, b, t.ProjectIDs(buf[:0], lx.x), -1)
			}
		case relation.DeltaUpdate:
			from, to := lx.ix.Update(t, a, dl.OldID)
			if to < 0 {
				continue
			}
			xids := t.ProjectIDs(buf[:0], lx.x)
			if from == to {
				// a is tallied, not indexed: its own group alone is affected.
				s.countBucket(lx, to, xids, a)
				continue
			}
			// t moved buckets: the one it left is recounted too.
			old := append(obuf[:0], xids...)
			for i, x := range lx.x {
				if x == a {
					old[i] = dl.OldID
				}
			}
			s.countBucket(lx, from, old, -1)
			s.countBucket(lx, to, xids, -1)
		}
	}
	for gi, g := range s.d.groups {
		switch {
		case g.hasVar:
		case dl.Kind == relation.DeltaDelete:
			s.dropConstTuple(gi, t.ID)
		case dl.Kind == relation.DeltaInsert || g.a == a || slices.Contains(g.x, a):
			s.countConstTuple(gi, t)
		}
	}
}

// VioCounts is Detector.VioCounts for the store's writer. When t carries ids
// and every group counts zero, the store notes t, the relation version and
// t's ids, and the insert of exactly that tuple at that version (the next
// delta, with no other in between) recounts nothing. That is exact: the
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

// countBucket recounts, for bucket b of lx — the bucket whose key is xids —
// the violations of every variable-RHS group on lx, or only of the group
// whose RHS attribute is only when that is not negative.
func (s *VioStore) countBucket(lx *lhsIndex, b int32, xids []relation.ValueID, only int) {
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
		n, was := g.bucketVios(rows, &counts[j]), st.buckets[b]
		if n == was {
			continue
		}
		s.add(gi, n-was)
		if n == 0 {
			delete(st.buckets, b)
		} else {
			st.buckets[b] = n
		}
	}
}

// countConstTuple recounts the case-1 violations of one tuple within a
// constant-only group.
func (s *VioStore) countConstTuple(gi int, t *relation.Tuple) {
	s.dropConstTuple(gi, t.ID)
	st := &s.state[gi]
	s.d.scanConstTuples(s.d.groups[gi], []*relation.Tuple{t}, func(t *relation.Tuple, _ *Normal, _ relation.TupleID) {
		st.tuples[t.ID]++
		s.add(gi, 1)
	})
}

func (s *VioStore) dropConstTuple(gi int, id relation.TupleID) {
	st := &s.state[gi]
	s.add(gi, -st.tuples[id])
	delete(st.tuples, id)
}

// VioFilter selects violations from a listing (see Match). Zero bounds
// are open; Rule "" matches every rule; Attr < 0 matches every attribute
// (use AnyVio for the match-everything filter — the zero value pins
// attribute 0, which is almost never what a caller wants).
type VioFilter struct {
	// Rule, when non-empty, keeps only violations of the normal CFD with
	// this name.
	Rule string
	// Attr, when >= 0, keeps only violations of rules whose embedded FD
	// mentions this attribute position (in X or as the RHS A).
	Attr int
	// MinID/MaxID, when non-zero, bound the violating tuple id T.
	MinID, MaxID relation.TupleID
}

// AnyVio returns the filter that matches every violation.
func AnyVio() VioFilter { return VioFilter{Attr: -1} }

// Match reports whether v passes the filter.
func (f VioFilter) Match(v Violation) bool {
	if f.MinID != 0 && v.T < f.MinID {
		return false
	}
	if f.MaxID != 0 && v.T > f.MaxID {
		return false
	}
	if f.Rule != "" && v.N.Name != f.Rule {
		return false
	}
	if f.Attr >= 0 && !slices.Contains(v.N.X, f.Attr) && v.N.A != f.Attr {
		return false
	}
	return true
}

// scan visits every violation held, with the index of its group: the
// dirty buckets of a variable-RHS group through scanBucket, the violating
// tuples of a constant-only one through scanConstTuples — O(members of the
// dirty buckets + dirty tuples + vio(D)). Visit order is unspecified.
func (s *VioStore) scan(visit func(gi int, t *relation.Tuple, n *Normal, with relation.TupleID)) {
	var ts []*relation.Tuple
	var one [1]*relation.Tuple
	for gi, g := range s.d.groups {
		st := &s.state[gi]
		if st.total == 0 {
			continue
		}
		emit := func(t *relation.Tuple, n *Normal, with relation.TupleID) { visit(gi, t, n, with) }
		if g.hasVar {
			ix := s.d.index(g)
			for b := range st.buckets {
				ids, counts := ix.BucketAt(b)
				ts = s.d.scanBucket(g, ids, &counts[g.slot], ts, emit)
			}
			continue
		}
		for id := range st.tuples {
			one[0] = s.rel.Tuple(id)
			s.d.scanConstTuples(g, one[:], emit)
		}
	}
}

// Detect returns every current violation in the canonical (tuple id,
// rule rank, partner id) order, re-derived from the dirty buckets and
// tuples alone.
func (s *VioStore) Detect() []Violation {
	out := make([]Violation, 0, s.total)
	s.scan(func(_ int, t *relation.Tuple, n *Normal, with relation.TupleID) {
		out = append(out, Violation{T: t.ID, N: n, With: with})
	})
	s.d.sortViolations(out)
	return out
}

// VioAll returns vio(t) for every tuple with at least one violation,
// counted over the dirty buckets and tuples alone.
func (s *VioStore) VioAll() map[relation.TupleID]int {
	out := make(map[relation.TupleID]int)
	s.scan(func(_ int, t *relation.Tuple, _ *Normal, _ relation.TupleID) { out[t.ID]++ })
	return out
}

// VioCount returns vio(t) of the stored tuple with the given id (0 if it
// violates nothing or there is none), through the detector's probes: one
// bucket lookup per distinct LHS.
func (s *VioStore) VioCount(id relation.TupleID) int {
	t := s.rel.Tuple(id)
	if s.total == 0 || t == nil {
		return 0
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

// OneShot builds a violation store for sigma over rel, returns what read
// answers from it and closes it: a whole-database question asked once.
func OneShot[T any](rel *relation.Relation, sigma []*Normal, read func(*VioStore) T) T {
	s := NewVioStore(rel, sigma)
	defer s.Close()
	return read(s)
}

// Satisfies reports whether rel |= sigma.
func Satisfies(rel *relation.Relation, sigma []*Normal) bool {
	return OneShot(rel, sigma, (*VioStore).Satisfied)
}

// Components returns the connected components of the violation graph:
// tuples are nodes, and an edge joins two tuples that co-occur in a
// violation (the With partner of a variable-RHS violation); a tuple whose
// only violations are single-tuple (constant-RHS) ones is a singleton.
// Each component is sorted by tuple id and the components by their
// smallest member: a canonical partition of the violating tuples. Two
// components share no violation, so BATCHREPAIR runs its greedy loop one
// component at a time (Partition).
func (s *VioStore) Components() [][]relation.TupleID {
	comps, _ := s.Partition()
	return comps
}

// Partition answers, from one scan, what BATCHREPAIR starts from: the
// components (see Components), and groups[p], the groups (per
// Detector.Groups order) the tuple at position p violates under, nil
// where it violates nothing. The components come from a union-find over
// positions, in O(vio(D)·α + v log v + n) for v violating tuples of n;
// the store keeps no connectivity state between calls.
func (s *VioStore) Partition() (comps [][]relation.TupleID, groups [][]int) {
	ts := s.rel.Tuples()
	groups = make([][]int, len(ts))
	parent := make([]int32, len(ts)) // position + 1 of p's parent; 0: not met
	find := func(p int32) int32 {
		for parent[p] != 0 && parent[p] != p+1 {
			parent[p] = parent[parent[p]-1] // path halving
			p = parent[p] - 1
		}
		parent[p] = p + 1
		return p
	}
	var nodes []int32 // the violating tuples: every partner is one too
	s.scan(func(gi int, t *relation.Tuple, _ *Normal, with relation.TupleID) {
		p, _ := s.rel.Position(t.ID)
		if groups[p] == nil {
			nodes = append(nodes, int32(p))
		}
		if !slices.Contains(groups[p], gi) {
			groups[p] = append(groups[p], gi)
		}
		if a := find(int32(p)); with != 0 {
			q, _ := s.rel.Position(with)
			b := find(int32(q))
			parent[max(a, b)] = min(a, b) + 1
		}
	})
	// In ascending id order, each component's members come out sorted and
	// the components in the order of their smallest members.
	slices.SortFunc(nodes, func(p, q int32) int { return cmp.Compare(ts[p].ID, ts[q].ID) })
	at := make([]int32, len(ts)) // at[root]: the root's component + 1
	for _, p := range nodes {
		r := find(p)
		if at[r] == 0 {
			comps = append(comps, nil)
			at[r] = int32(len(comps))
		}
		comps[at[r]-1] = append(comps[at[r]-1], ts[p].ID)
	}
	return comps, groups
}
