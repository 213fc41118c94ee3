// Package cluster provides similarity indices over attribute domains: the
// "cost-based indices" of §5.2, which let TUPLERESOLVE range over the
// active domain of an attribute in decreasing similarity to a given value
// and stop at the first suitable candidate.
//
// The paper arranges adom(Repr, A) in a tree built by hierarchical
// agglomerative clustering (HAC) under the DL metric and descends toward
// the child cluster closest to the probe. HAC is O(n²) in the domain
// size, which is fine for the categorical attributes CFDs constrain but
// prohibitive for key-like attributes with tens of thousands of distinct
// values. This package therefore offers two implementations of one
// Index contract:
//
//   - HAC — the paper's structure, for small domains;
//   - BKTree — a Burkhard–Keller tree, the standard metric index for edit
//     distances, with the same "values in increasing distance" contract
//     and O(n log n) construction.
//
// New picks HAC below a size threshold and BKTree above it.
//
// Both grow in place as repairs add values to the domain (Add). Only the
// BKTree also shrinks in place (Remove): its search prunes by the triangle
// inequality alone, so under a metric Nearest is the exact top-k by
// (distance, value) within MaxRadius — a function of the set of live
// values, not of the tree's shape — and a removed value can stay behind
// as a tombstone that routes searches but is never returned. A later Add
// revives it; once tombstones outnumber live values the tree is rebuilt
// without them, which keeps both memory and search cost within a constant
// factor of a fresh tree at amortised O(1) re-insertions per Remove.
// HAC's Nearest is approximate — it collects leaves along one descent — so
// its answers do depend on the shape; it refuses Remove and the caller
// rebuilds it over the shrunk domain, which is cheap at the sizes HAC
// serves.
//
// A BK search measures one probe against every node it visits, with a
// cutoff (the current radius plus the node's reach). Where the metric can
// split that work (strdist.ProbeMetric) the tree prepares the probe once
// per Nearest — for DL, the ASCII check and the match vectors of the
// bit-vector kernel — and each node then costs one pass over its own
// value, a word operation per byte, instead of a |probe|·|value| dynamic
// program. The distances are the same to the value, so the search visits
// the same nodes in the same order as it would through the plain metric.
//
// One caveat on "exact": the restricted DL distance the paper names is a
// metric except around a transposition that is then edited in the middle
// (CA→AC→ABC costs 1+1, CA→ABC costs 3). Where a probe, a node and a
// value form such a triple the pruning can pass the value by, in a fresh
// tree and in a maintained one alike; which tree does depends on its
// shape. Measured on generated order data: one probe in several thousand,
// at the tail of the k results.
package cluster

import (
	"sort"

	"cfdclean/internal/strdist"
)

// Index finds active-domain values similar to a probe string.
type Index interface {
	// Nearest returns up to k domain values ordered by increasing
	// distance to v (ties broken lexicographically). v itself may be
	// among the results if indexed.
	Nearest(v string, k int) []string
	// Add inserts a new value into the index (repairs grow the active
	// domain as tuples are inserted, §5.1).
	Add(v string)
	// Remove takes v out of the index (a delete or update took its last
	// occurrence out of the active domain) and reports whether the index
	// could do that in place. After false the index is unchanged and the
	// caller must build a new one over the shrunk domain.
	Remove(v string) bool
	// Len returns the number of indexed values.
	Len() int
	// Stats returns the index's work counters.
	Stats() Stats
}

// Stats are the plain work counters of one index. An index has a single
// writer, and Nearest counts too, so they are not synchronised.
type Stats struct {
	// Visited counts tree nodes examined by Nearest.
	Visited int
	// Compactions counts BKTree rebuilds that dropped its tombstones.
	Compactions int
	// Tombstones is the number of removed values a BKTree still holds.
	Tombstones int
}

// Plus returns the fieldwise sum of s and o.
func (s Stats) Plus(o Stats) Stats {
	return Stats{
		Visited:     s.Visited + o.Visited,
		Compactions: s.Compactions + o.Compactions,
		Tombstones:  s.Tombstones + o.Tombstones,
	}
}

// HACSizeLimit is the domain size up to which New builds the paper's HAC
// tree; larger domains get a BK-tree. HAC construction is quadratic in
// the domain size (it materializes the pairwise distance matrix), which
// dominates whole-run profiles once domains reach the hundreds, while
// BK-tree construction is near-linearithmic with equivalent Nearest
// results for the discrete DL metric.
const HACSizeLimit = 64

// New builds an index over vals with the given metric (nil = DL).
func New(vals []string, m strdist.Metric) Index {
	if m == nil {
		m = strdist.DL
	}
	if len(vals) <= HACSizeLimit {
		return NewHAC(vals, m)
	}
	return NewBKTree(vals, m)
}

// --- BK-tree ---

type bkNode struct {
	val string
	// dead marks a tombstone: the value left the domain, the node stays to
	// route searches to its subtree.
	dead bool
	// children are sorted by edge label (the distance from val).
	children []bkEdge
	// maxe is the largest edge label below this node; it bounds how far
	// any descendant can be from this node's value and lets Nearest call
	// the bounded metric with a sound cutoff.
	maxe int
}

type bkEdge struct {
	e int
	n *bkNode
}

// BKTree is a Burkhard–Keller metric tree over strings.
type BKTree struct {
	metric strdist.Metric
	// bounded is the metric's cutoff form and probe its prepared form, nil
	// when it has none. Nearest measures one string against every node it
	// visits, so what depends on that string alone — for DL, the ASCII
	// check and the match vectors of the bit-vector kernel — is prepared
	// once per query. The distances, and so the nodes visited, are the same
	// through all three.
	bounded strdist.BoundedMetric
	probe   strdist.Probe
	root    *bkNode
	// nodes maps every value in the tree, live or dead, to its node.
	nodes map[string]*bkNode
	stats Stats
}

// NewBKTree indexes vals under metric m (nil = DL).
func NewBKTree(vals []string, m strdist.Metric) *BKTree {
	if m == nil {
		m = strdist.DL
	}
	t := &BKTree{metric: m, nodes: make(map[string]*bkNode, len(vals))}
	t.bounded, _ = m.(strdist.BoundedMetric)
	if pm, ok := m.(strdist.ProbeMetric); ok {
		t.probe = pm.NewProbe()
	}
	for _, v := range vals {
		t.Add(v)
	}
	return t
}

// Len returns the number of distinct live values.
func (t *BKTree) Len() int { return len(t.nodes) - t.stats.Tombstones }

// Stats returns the tree's work counters.
func (t *BKTree) Stats() Stats { return t.stats }

// Add inserts v, or revives its tombstone (duplicates are ignored).
func (t *BKTree) Add(v string) {
	if n := t.nodes[v]; n != nil {
		if n.dead {
			n.dead = false
			t.stats.Tombstones--
		}
		return
	}
	leaf := &bkNode{val: v}
	t.nodes[v] = leaf
	if t.root == nil {
		t.root = leaf
		return
	}
	cur := t.root
	for {
		d := t.metric.Distance(v, cur.val)
		if d > cur.maxe {
			cur.maxe = d
		}
		i := edgeAtLeast(cur.children, d)
		if i == len(cur.children) || cur.children[i].e != d {
			cur.children = append(cur.children, bkEdge{})
			copy(cur.children[i+1:], cur.children[i:])
			cur.children[i] = bkEdge{e: d, n: leaf}
			return
		}
		cur = cur.children[i].n
	}
}

// Remove tombstones v's node; it always succeeds. When the tombstones
// come to outnumber the live values the tree is rebuilt from the live
// ones (in sorted order, so the new shape is reproducible).
func (t *BKTree) Remove(v string) bool {
	n := t.nodes[v]
	if n == nil || n.dead {
		return true
	}
	n.dead = true
	t.stats.Tombstones++
	if t.stats.Tombstones > t.Len() {
		live := make([]string, 0, t.Len())
		for s, n := range t.nodes {
			if !n.dead {
				live = append(live, s)
			}
		}
		sort.Strings(live)
		t.root = nil
		clear(t.nodes)
		t.stats.Tombstones = 0
		t.stats.Compactions++
		for _, s := range live {
			t.Add(s)
		}
	}
	return true
}

// MaxRadius caps the BK-tree search: repair candidates farther than this
// from the query are not meaningfully "similar" (the paper's noise is at
// DL distance 1–6, and the normalized cost of such distant values
// approaches 1 anyway), and the cap turns most distance computations into
// cheap early exits of the bounded metric.
const MaxRadius = 8

type bkHit struct {
	val string
	d   int
}

// bkSearch is the state of one Nearest call.
type bkSearch struct {
	t *BKTree
	v string
	k int
	// hits holds the best ≤ k live values found so far, sorted by (d, val);
	// worst is the current search radius.
	hits  []bkHit
	worst int
}

// Nearest returns up to k values within MaxRadius of v by increasing
// distance, using the triangle-inequality pruning of the BK-tree: a
// subtree at edge distance e from a node at distance d can only contain
// values within |d-e| of v.
func (t *BKTree) Nearest(v string, k int) []string {
	if t.root == nil || k <= 0 {
		return nil
	}
	s := bkSearch{t: t, v: v, k: k, hits: make([]bkHit, 0, k+1), worst: MaxRadius}
	if t.probe != nil {
		t.probe.Reset(v)
	}
	s.walk(t.root)
	out := make([]string, len(s.hits))
	for i, h := range s.hits {
		out[i] = h.val
	}
	return out
}

func (s *bkSearch) insert(val string, d int) {
	i := len(s.hits)
	for i > 0 && (s.hits[i-1].d > d || (s.hits[i-1].d == d && s.hits[i-1].val > val)) {
		i--
	}
	s.hits = append(s.hits, bkHit{})
	copy(s.hits[i+1:], s.hits[i:])
	s.hits[i] = bkHit{val, d}
	if len(s.hits) > s.k {
		s.hits = s.hits[:s.k]
	}
	if len(s.hits) == s.k && s.hits[s.k-1].d < s.worst {
		s.worst = s.hits[s.k-1].d
	}
}

func (s *bkSearch) walk(n *bkNode) {
	s.t.stats.Visited++
	// The distance computation may give up at worst+maxe: beyond
	// that neither the value itself (> worst away) nor any child
	// subtree (|e−D| ≥ D−maxe > worst) can contribute, so the
	// truncated result still prunes soundly.
	bound := s.worst + n.maxe
	var d int
	switch {
	case s.t.probe != nil:
		d = s.t.probe.DistanceBounded(n.val, bound)
	case s.t.bounded != nil:
		d = s.t.bounded.DistanceBounded(s.v, n.val, bound)
	default:
		d = s.t.metric.Distance(s.v, n.val)
	}
	if d <= s.worst && !n.dead {
		s.insert(n.val, d)
	}
	if d > bound {
		return
	}
	// Visit the children by increasing |e−d|, lower edge first on ties:
	// the closest subtrees hold the closest values, so the radius shrinks
	// soonest, and once one edge is out of reach so are all the rest.
	ch := n.children
	hi := edgeAtLeast(ch, d)
	lo := hi - 1
	for lo >= 0 || hi < len(ch) {
		var c bkEdge
		if hi == len(ch) || (lo >= 0 && d-ch[lo].e <= ch[hi].e-d) {
			c = ch[lo]
			lo--
		} else {
			c = ch[hi]
			hi++
		}
		if c.e-d > s.worst || d-c.e > s.worst {
			return
		}
		s.walk(c.n)
	}
}

// edgeAtLeast returns the position of the first edge labelled ≥ d. Fan-out
// is bounded by the distances that occur, a dozen or so, so a scan beats a
// binary search.
func edgeAtLeast(ch []bkEdge, d int) int {
	i := 0
	for i < len(ch) && ch[i].e < d {
		i++
	}
	return i
}

// --- Hierarchical agglomerative clustering ---

type hacNode struct {
	medoid string
	leaves []string // only at leaf clusters
	left   *hacNode
	right  *hacNode
}

// HAC is the paper's clustering tree: values grouped by similarity under
// the DL metric, queried by descending toward the closest child medoid.
type HAC struct {
	metric strdist.Metric
	root   *hacNode
	size   int
	seen   map[string]bool
	stats  Stats
}

// NewHAC builds the tree by average-linkage agglomerative clustering.
// O(n²) in len(vals); intended for small domains (see HACSizeLimit).
func NewHAC(vals []string, m strdist.Metric) *HAC {
	if m == nil {
		m = strdist.DL
	}
	h := &HAC{metric: m, seen: make(map[string]bool, len(vals))}
	var distinct []string
	for _, v := range vals {
		if !h.seen[v] {
			h.seen[v] = true
			distinct = append(distinct, v)
		}
	}
	sort.Strings(distinct)
	h.size = len(distinct)
	if len(distinct) == 0 {
		return h
	}
	// Active clusters, merged pairwise by smallest medoid distance.
	clusters := make([]*hacNode, len(distinct))
	for i, v := range distinct {
		clusters[i] = &hacNode{medoid: v, leaves: []string{v}}
	}
	for len(clusters) > 1 {
		bi, bj, bd := 0, 1, 1<<30
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				d := m.Distance(clusters[i].medoid, clusters[j].medoid)
				if d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		merged := &hacNode{
			left:  clusters[bi],
			right: clusters[bj],
			// Medoid of the merged cluster: keep the left medoid; exact
			// medoid recomputation is O(n²) and changes little here.
			medoid: clusters[bi].medoid,
		}
		clusters[bi] = merged
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	h.root = clusters[0]
	return h
}

// Len returns the number of distinct indexed values.
func (h *HAC) Len() int { return h.size }

// Stats returns the tree's work counters.
func (h *HAC) Stats() Stats { return h.stats }

// Remove always refuses: which leaves Nearest collects depends on the
// dendrogram's shape, so only a rebuild over the shrunk domain answers as
// a fresh index would.
func (h *HAC) Remove(string) bool { return false }

// Add inserts v into the leaf cluster with the closest medoid.
func (h *HAC) Add(v string) {
	if h.seen[v] {
		return
	}
	h.seen[v] = true
	h.size++
	if h.root == nil {
		h.root = &hacNode{medoid: v, leaves: []string{v}}
		return
	}
	cur := h.root
	for cur.left != nil {
		dl := h.metric.Distance(v, cur.left.medoid)
		dr := h.metric.Distance(v, cur.right.medoid)
		if dl <= dr {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	cur.leaves = append(cur.leaves, v)
}

// Nearest descends the dendrogram toward the closest medoid, collecting
// leaves in visit order, then orders the collected pool by true distance.
func (h *HAC) Nearest(v string, k int) []string {
	if h.root == nil || k <= 0 {
		return nil
	}
	// Collect at least k candidate leaves by walking closest-first.
	var pool []string
	var walk func(n *hacNode)
	walk = func(n *hacNode) {
		if len(pool) >= 4*k {
			return
		}
		h.stats.Visited++
		if n.left == nil {
			pool = append(pool, n.leaves...)
			return
		}
		dl := h.metric.Distance(v, n.left.medoid)
		dr := h.metric.Distance(v, n.right.medoid)
		first, second := n.left, n.right
		if dr < dl {
			first, second = n.right, n.left
		}
		walk(first)
		if len(pool) < k {
			walk(second)
		}
	}
	walk(h.root)
	type hit struct {
		val string
		d   int
	}
	hits := make([]hit, len(pool))
	for i, s := range pool {
		hits[i] = hit{s, h.metric.Distance(v, s)}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].val < hits[j].val
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]string, len(hits))
	for i, ht := range hits {
		out[i] = ht.val
	}
	return out
}
