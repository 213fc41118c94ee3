package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cfdclean/internal/strdist"
)

// TestBKTreeRemoveMatchesRebuild is the contract the delete path of
// INCREPAIR rests on: however a tree got to its current set of live values
// — adds, removes, revivals, compactions — Nearest answers exactly as a
// tree freshly built over that set does (and as brute force does).
//
// The guarantee is the BK-tree's own: it holds for a metric. Levenshtein
// is one. The restricted DL the paper names is not quite — transposing two
// characters and then editing between them breaks the triangle inequality
// (CA→AC→ABC costs 1+1, CA→ABC costs 3) — and on this test's six-letter
// alphabet, where such triples are everywhere, about one DL query in a few
// thousand differs between two tree shapes (TestBKTreeMatchesBruteForce
// pins DL against brute force on a seed where none does). That is a
// property of pruning a BK-tree under DL, shared by a fresh tree and a
// maintained one alike, so it is kept out of this structural check.
func TestBKTreeRemoveMatchesRebuild(t *testing.T) {
	lev := strdist.Func(strdist.Levenshtein)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		pool := randomWords(rng, 150)
		tree := NewBKTree(pool[:100], lev)
		live := make(map[string]bool)
		for _, w := range pool[:100] {
			live[w] = true
		}
		for step := 0; step < 400; step++ {
			w := pool[rng.Intn(len(pool))]
			// Mostly removals, so every trial crosses compactions; adds
			// revive tombstones or extend the tree below dead nodes.
			if rng.Intn(10) < 7 {
				if !tree.Remove(w) {
					t.Fatalf("BKTree.Remove(%q) refused", w)
				}
				delete(live, w)
			} else {
				tree.Add(w)
				live[w] = true
			}
			if tree.Len() != len(live) {
				t.Fatalf("trial %d step %d: Len = %d, %d values live", trial, step, tree.Len(), len(live))
			}
			if st := tree.Stats(); st.Tombstones > tree.Len() {
				t.Fatalf("trial %d step %d: %d tombstones over %d live values — compaction did not run", trial, step, st.Tombstones, tree.Len())
			}
			if step%7 != 0 {
				continue
			}
			vals := make([]string, 0, len(live))
			for v := range live {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			fresh := NewBKTree(vals, lev)
			for probe := 0; probe < 4; probe++ {
				q := pool[rng.Intn(len(pool))]
				if probe%2 == 1 {
					q = randomWords(rng, 1)[0]
				}
				k := 1 + rng.Intn(5)
				got, want := tree.Nearest(q, k), fresh.Nearest(q, k)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("trial %d step %d: Nearest(%q,%d) = %v, a fresh tree says %v", trial, step, q, k, got, want)
				}
				if brute := bruteNearestBy(lev, vals, q, k); len(got) != len(brute) || (len(got) > 0 && !reflect.DeepEqual(got, brute)) {
					t.Fatalf("trial %d step %d: Nearest(%q,%d) = %v, brute force says %v", trial, step, q, k, got, brute)
				}
			}
		}
		if tree.Stats().Compactions == 0 {
			t.Fatalf("trial %d never compacted; the schedule no longer covers it", trial)
		}
	}
}

// TestBKTreeRemoveEdges: removing the root, an absent value and the last
// value; an emptied tree starts over.
func TestBKTreeRemoveEdges(t *testing.T) {
	tree := NewBKTree([]string{"alpha", "alphb", "beta", "gamma", "delta"}, nil)
	tree.Remove("alpha") // the root: still routes to its subtree
	tree.Remove("nowhere")
	tree.Remove("alpha") // twice
	if got := tree.Nearest("alpha", 2); !reflect.DeepEqual(got, []string{"alphb", "beta"}) {
		t.Fatalf("Nearest after removing the root = %v", got)
	}
	if tree.Len() != 4 || tree.Stats().Tombstones != 1 {
		t.Fatalf("Len %d, tombstones %d; want 4 and 1", tree.Len(), tree.Stats().Tombstones)
	}
	tree.Add("alpha") // revived, not re-inserted
	if got := tree.Nearest("alpha", 1); !reflect.DeepEqual(got, []string{"alpha"}) || tree.Stats().Tombstones != 0 {
		t.Fatalf("after revival Nearest = %v, tombstones %d", got, tree.Stats().Tombstones)
	}
	for _, v := range []string{"alpha", "alphb", "beta", "gamma", "delta"} {
		tree.Remove(v)
	}
	if tree.Len() != 0 || tree.Nearest("alpha", 3) != nil {
		t.Fatalf("emptied tree: Len %d, Nearest %v", tree.Len(), tree.Nearest("alpha", 3))
	}
	tree.Add("solo")
	if got := tree.Nearest("sol", 1); !reflect.DeepEqual(got, []string{"solo"}) {
		t.Fatalf("Nearest after refilling = %v", got)
	}
}

// TestHACRefusesRemove: the approximate index cannot shrink in place and
// says so, leaving itself untouched for the caller to replace.
func TestHACRefusesRemove(t *testing.T) {
	h := NewHAC(cities, nil)
	before := h.Nearest("Bostom", 3)
	if h.Remove("Boston") {
		t.Fatal("HAC.Remove reported success")
	}
	if h.Len() != len(cities) || !reflect.DeepEqual(h.Nearest("Bostom", 3), before) {
		t.Fatal("a refused Remove changed the index")
	}
}

// TestBKTreeNearestAllocs pins the search's allocation budget: the hit
// list and the result, nothing per node visited.
func TestBKTreeNearestAllocs(t *testing.T) {
	tree := NewBKTree(randomWords(rand.New(rand.NewSource(3)), 2000), nil)
	for _, w := range randomWords(rand.New(rand.NewSource(4)), 300) {
		tree.Remove(w)
	}
	if n := testing.AllocsPerRun(50, func() { tree.Nearest("abcdefa", 4) }); n > 2 {
		t.Errorf("BKTree.Nearest: %v allocs per call, want ≤ 2", n)
	}
}
