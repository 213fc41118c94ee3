package cfd

import (
	"fmt"
	"slices"
	"testing"

	"cfdclean/internal/relation"
)

// compileByRow is the reference Compile is held to: one pass over sigma,
// working out the group, LHS plan and mask bucket of every run of adjacent
// same-shape rows, a group found through a string key of its X and A.
func compileByRow(dict *relation.Dict, sigma []*Normal) *Compiled {
	c := &Compiled{sigma: sigma}
	byKey := make(map[string]int)
	for i := 0; i < len(sigma); {
		n := sigma[i]
		j := i + 1
		for j < len(sigma) && sameShape(n, sigma[j]) {
			j++
		}
		perm := sortedPerm(n.X)
		x := make([]int, len(n.X))
		var pos []int
		for k, p := range perm {
			x[k] = n.X[p]
			if !n.TpX[p].Wildcard {
				pos = append(pos, k)
			}
		}
		key := fmt.Sprint(x, n.A)
		gi, ok := byKey[key]
		if !ok {
			gi = len(c.plans)
			byKey[key] = gi
			li := slices.IndexFunc(c.lhs, func(lx *lhsPlan) bool { return slices.Equal(lx.x, x) })
			if li < 0 {
				li = len(c.lhs)
				c.lhs = append(c.lhs, &lhsPlan{x: x})
			}
			lx := c.lhs[li]
			c.plans = append(c.plans, &groupPlan{x: lx.x, a: n.A, schema: n.Schema, lhs: li, slot: len(lx.as)})
			lx.as = append(lx.as, n.A)
			lx.groups = append(lx.groups, gi)
		}
		g := c.plans[gi]
		mb := c.lhs[g.lhs].mask(pos, j-i)
		if !slices.Contains(g.masks, mb) {
			g.masks = append(g.masks, mb)
		}
		for ; i < j; i++ {
			n := sigma[i]
			row := &groupRow{n: n, slot: g.slot, tpa: n.TpA, cons: n.ConstantRHS()}
			if row.cons {
				row.tpaID = dict.InternStr(n.TpA.Const)
			} else {
				g.hasVar = true
			}
			var ids []relation.ValueID
			for _, k := range pos {
				ids = append(ids, dict.InternStr(n.TpX[perm[k]].Const))
			}
			mb.add(ids, row)
		}
	}
	return c
}

// DiffCompileByRow compiles sigma with Compile and with compileByRow, each
// into its own clone of dict, and returns the first difference between the
// two — the plans, the LHS plans, every mask list in order, every row
// chain, the rank the first sort builds and the dictionaries' ids — or ""
// when there is none. It is exported to the package's external tests, which build §7.1's
// Σ through internal/gen.
func DiffCompileByRow(dict *relation.Dict, sigma []*Normal) string {
	gotDict, wantDict := dict.Clone(), dict.Clone()
	got, want := Compile(gotDict, sigma), compileByRow(wantDict, sigma)
	if d := diffCompiled(got, want, gotDict); d != "" {
		return d
	}
	if g, w := gotDict.StringsFrom(0, gotDict.Len()), wantDict.StringsFrom(0, wantDict.Len()); !slices.Equal(g, w) {
		return fmt.Sprintf("dictionaries differ: %d constants, want %d", len(g), len(w))
	}
	return ""
}

func diffCompiled(got, want *Compiled, gotDict *relation.Dict) string {
	if !slices.Equal(got.sigma, want.sigma) {
		return "sigma differs"
	}
	if got.rank != nil {
		return "Compile built the rank before any sort asked for it"
	}
	for i, n := range got.sigma {
		if got.ranks()[n] != i {
			return fmt.Sprintf("rule %d ranks %d", i, got.ranks()[n])
		}
	}
	if len(got.plans) != len(want.plans) || len(got.lhs) != len(want.lhs) {
		return fmt.Sprintf("%d plans on %d LHS, want %d on %d", len(got.plans), len(got.lhs), len(want.plans), len(want.lhs))
	}
	for li, w := range want.lhs {
		g := got.lhs[li]
		if !slices.Equal(g.x, w.x) || !slices.Equal(g.as, w.as) || !slices.Equal(g.groups, w.groups) || len(g.masks) != len(w.masks) {
			return fmt.Sprintf("LHS %d: x %v as %v groups %v, %d masks; want %v %v %v, %d",
				li, g.x, g.as, g.groups, len(g.masks), w.x, w.as, w.groups, len(w.masks))
		}
		for m, wm := range w.masks {
			gm := g.masks[m]
			if !slices.Equal(gm.pos, wm.pos) || gm.rows.Len() != len(gm.heads) || len(gm.heads) != len(wm.heads) {
				return fmt.Sprintf("LHS %d mask %d: pos %v with %d keys and %d chains, want %v with %d chains",
					li, m, gm.pos, gm.rows.Len(), len(gm.heads), wm.pos, len(wm.heads))
			}
			for k, wr := range wm.heads {
				if d := diffChain(gm.heads[k], wr); d != "" {
					return fmt.Sprintf("LHS %d mask %d chain %d: %s", li, m, k, d)
				}
				// The chain must be filed under its head's own constants.
				perm, ids := sortedPerm(wr.n.X), []relation.ValueID(nil)
				for _, p := range gm.pos {
					id, _ := gotDict.LookupStr(wr.n.TpX[perm[p]].Const)
					ids = append(ids, id)
				}
				if at, ok := gm.rows.Get(ids); !ok || int(at) != k {
					return fmt.Sprintf("LHS %d mask %d: the constants %v of chain %d find chain %d (%v)", li, m, ids, k, at, ok)
				}
			}
			if d := diffChain(gm.wild, wm.wild); d != "" {
				return fmt.Sprintf("LHS %d mask %d wildcard chain: %s", li, m, d)
			}
		}
	}
	for gi, w := range want.plans {
		g := got.plans[gi]
		if !slices.Equal(g.x, w.x) || g.a != w.a || g.schema != w.schema || g.lhs != w.lhs || g.slot != w.slot || g.hasVar != w.hasVar {
			return fmt.Sprintf("plan %d: %+v, want %+v", gi, *g, *w)
		}
		// A plan's masks are its LHS's; compare where they sit in that list.
		at := func(c *Compiled, p *groupPlan) []int {
			var out []int
			for _, mb := range p.masks {
				out = append(out, slices.Index(c.lhs[p.lhs].masks, mb))
			}
			return out
		}
		if g, w := at(got, g), at(want, w); !slices.Equal(g, w) {
			return fmt.Sprintf("plan %d masks at %v, want %v", gi, g, w)
		}
	}
	return ""
}

// diffChain compares two row chains row by row, and their heads' tails.
func diffChain(got, want *groupRow) string {
	if got != nil && want != nil && got.last.n != want.last.n {
		return fmt.Sprintf("chain ends at %v, want %v", got.last.n, want.last.n)
	}
	for k := 0; got != nil || want != nil; k++ {
		if got == nil || want == nil {
			return fmt.Sprintf("chains differ in length at row %d", k)
		}
		if got.n != want.n || got.slot != want.slot || got.tpa != want.tpa || got.cons != want.cons || got.tpaID != want.tpaID {
			return fmt.Sprintf("row %d is %v (slot %d, tpa id %d), want %v (slot %d, tpa id %d)",
				k, got.n, got.slot, got.tpaID, want.n, want.slot, want.tpaID)
		}
		got, want = got.next, want.next
	}
	return ""
}

// interleavedSigma lists rows of one shape apart from each other (A, B, A,
// C, B, A, B), with two shapes — [CT, STR] and [STR, CT] → zip, constants
// on STR — that are one group and share one mask bucket, and a key (Elm)
// whose chain takes a row of the second shape between two of the first.
func interleavedSigma(s *relation.Schema) []*Normal {
	a := MustNew("a", s, []string{"AC"}, []string{"CT"},
		[]Cell{C("212"), C("NYC")}, []Cell{C("215"), C("PHI")}, []Cell{C("415"), C("LA")}).Normalize()
	b := MustNew("b", s, []string{"CT", "STR"}, []string{"zip"},
		[]Cell{W, C("Elm"), W}, []Cell{W, C("Spruce"), C("19014")}, []Cell{W, C("Elm"), C("90001")}).Normalize()
	c := MustNew("c", s, []string{"STR", "CT"}, []string{"zip"},
		[]Cell{C("Elm"), W, C("10012")}).Normalize()
	return []*Normal{a[0], b[0], a[1], c[0], b[1], a[2], b[2]}
}

// TestCompileMatchesByRow holds Compile to compileByRow on the fuzz Σ, on
// Σ whose same-shape rows are not adjacent, and on both at once, into an
// empty dictionary and into one that already holds some of their
// constants.
func TestCompileMatchesByRow(t *testing.T) {
	s := orderSchema()
	for name, sigma := range map[string][]*Normal{
		"fuzzSigma":   fuzzSigma(s),
		"interleaved": interleavedSigma(s),
		"both":        append(interleavedSigma(s), fuzzSigma(s)...),
	} {
		for _, dict := range []*relation.Dict{relation.NewDict(), paperData(t).Dict()} {
			if d := DiffCompileByRow(dict, sigma); d != "" {
				t.Errorf("%s into %d constants: %s", name, dict.Len(), d)
			}
		}
	}
	// The interleaved Σ has seven runs of three shapes: it tests the
	// grouping of shapes that are not adjacent.
	sigma := interleavedSigma(s)
	runs := 1
	for i := 1; i < len(sigma); i++ {
		if !sameShape(sigma[i-1], sigma[i]) {
			runs++
		}
	}
	if c := Compile(relation.NewDict(), sigma); runs != 7 || len(c.plans) != 2 || len(c.lhs[1].masks) != 1 {
		t.Errorf("%d runs, %d plans, %d masks on [STR, CT]: the fixture lost its shape", runs, len(c.plans), len(c.lhs[1].masks))
	}
}
