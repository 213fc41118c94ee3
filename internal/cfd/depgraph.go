package cfd

// DepGraph is the dependency graph over a set of normal CFDs: there is an
// edge φ → ψ whenever the attribute φ's repairs primarily write — its RHS
// attribute A(φ) — is read by ψ's LHS. Repairing ψ before φ then risks
// rework: once φ corrects A(φ), ψ's earlier fix may rest on a stale LHS
// value (and worse, may have committed a conflicting constant to an
// equivalence class, forcing LHS edits or nulls later).
//
// The optimized BATCHREPAIR (§7.2) consults this graph to pick the next
// CFD to repair: violations of upstream rules are resolved before any
// downstream rule is touched. Cyclic CFD sets (like ϕ2/ϕ4 of the paper's
// running example, zip → CT and CT,STR → zip) land in one strongly
// connected component and compete on cost within it.
type DepGraph struct {
	adj   [][]int // adjacency by sigma position
	order []int   // sigma positions in repair-friendly order
	comp  []int   // comp[i] = SCC stratum of sigma[i], 0 = sources
}

// NewDepGraph builds the dependency graph for sigma.
func NewDepGraph(sigma []*Normal) *DepGraph {
	g := &DepGraph{adj: make([][]int, len(sigma))}
	// readers[a] lists the rules with attribute a in their LHS.
	readers := make(map[int][]int)
	for j, n := range sigma {
		for _, a := range n.X {
			readers[a] = append(readers[a], j)
		}
	}
	for i, n := range sigma {
		seen := make(map[int]bool)
		for _, j := range readers[n.A] {
			if j != i && !seen[j] {
				seen[j] = true
				g.adj[i] = append(g.adj[i], j)
			}
		}
	}
	g.order, g.comp = g.sccOrder()
	return g
}

// Order returns sigma positions in the repair-friendly order: topological
// order of the SCC condensation, sources first.
func (g *DepGraph) Order() []int { return g.order }

// Comp returns the stratum of sigma[i]: the index of its strongly
// connected component in topological order. Rules sharing a cycle share a
// stratum; violations of lower strata should be resolved first.
func (g *DepGraph) Comp(i int) int { return g.comp[i] }

// sccOrder runs Tarjan's algorithm; Tarjan emits SCCs in reverse
// topological order, so reversing the component list and flattening
// yields sources first. The second result maps each rule to its
// component's topological index.
func (g *DepGraph) sccOrder() (order, comp []int) {
	n := len(g.adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	var counter int

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.adj[v] {
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	order = make([]int, 0, n)
	comp = make([]int, n)
	for k := len(comps) - 1; k >= 0; k-- {
		for _, v := range comps[k] {
			comp[v] = len(comps) - 1 - k
			order = append(order, v)
		}
	}
	return order, comp
}
