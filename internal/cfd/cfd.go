// Package cfd implements conditional functional dependencies (CFDs) as
// defined in the paper (§2): a CFD φ = (R: X → Y, Tp) pairs an embedded
// functional dependency with a pattern tableau Tp whose rows contain
// constants and the unnamed variable '_'. The package provides the match
// order ≼, satisfaction semantics, the normal form (R: X → A, tp), an
// indexed violation detector implementing the paper's vio(t) counting
// (§3.1), satisfiability checking (§2), and a dependency graph over CFDs
// used by the optimized batch-repair algorithm (§7.2).
package cfd

import (
	"fmt"
	"strings"

	"cfdclean/internal/relation"
)

// Cell is a single entry of a pattern tuple: a constant or the unnamed
// variable '_' ("don't care").
type Cell struct {
	Const    string
	Wildcard bool
}

// W is the wildcard cell.
var W = Cell{Wildcard: true}

// C returns a constant cell.
func C(s string) Cell { return Cell{Const: s} }

// String renders the cell, using "_" for the wildcard.
func (c Cell) String() string {
	if c.Wildcard {
		return "_"
	}
	return c.Const
}

// MatchValue reports v ≼ c: the data value matches the pattern cell.
// Per the paper (§3.1 remark 2), a null data value matches no pattern
// cell — not even the wildcard — so CFDs apply only to tuples that
// precisely match a pattern tuple.
func MatchValue(v relation.Value, c Cell) bool {
	if v.Null {
		return false
	}
	return c.Wildcard || v.Str == c.Const
}

// RHSViolates reports whether RHS value v conflicts with pattern cell c.
// Unlike LHS matching, a null RHS never violates: null means "unknown or
// cannot be made certain" (§3.1), and the paper's Example 5.1 explicitly
// uses (null, null) to satisfy a constant-RHS CFD. Only a non-null value
// failing the pattern is a violation.
func RHSViolates(v relation.Value, c Cell) bool {
	if v.Null {
		return false
	}
	return !c.Wildcard && v.Str != c.Const
}

// CFD is a conditional functional dependency in its general form
// (R: X → Y, Tp). LHS and RHS hold attribute positions in the schema;
// every tableau row has len(LHS)+len(RHS) cells, LHS cells first.
type CFD struct {
	Name    string
	Schema  *relation.Schema
	LHS     []int
	RHS     []int
	Tableau [][]Cell
}

// New builds a CFD over schema s from attribute names. Every pattern row
// must have len(lhs)+len(rhs) cells.
func New(name string, s *relation.Schema, lhs, rhs []string, rows ...[]Cell) (*CFD, error) {
	if len(lhs) == 0 || len(rhs) == 0 {
		return nil, fmt.Errorf("cfd %s: empty LHS or RHS", name)
	}
	li, err := s.Indexes(lhs...)
	if err != nil {
		return nil, fmt.Errorf("cfd %s: %w", name, err)
	}
	ri, err := s.Indexes(rhs...)
	if err != nil {
		return nil, fmt.Errorf("cfd %s: %w", name, err)
	}
	seen := make(map[int]bool, len(ri))
	for _, a := range ri {
		if seen[a] {
			return nil, fmt.Errorf("cfd %s: duplicate RHS attribute %s", name, s.Attr(a))
		}
		seen[a] = true
	}
	for i, row := range rows {
		if len(row) != len(li)+len(ri) {
			return nil, fmt.Errorf("cfd %s: pattern row %d has %d cells, want %d", name, i, len(row), len(li)+len(ri))
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("cfd %s: empty pattern tableau", name)
	}
	return &CFD{Name: name, Schema: s, LHS: li, RHS: ri, Tableau: rows}, nil
}

// MustNew is New that panics on error; for tests and literals.
func MustNew(name string, s *relation.Schema, lhs, rhs []string, rows ...[]Cell) *CFD {
	φ, err := New(name, s, lhs, rhs, rows...)
	if err != nil {
		panic(err)
	}
	return φ
}

// FD builds the CFD encoding of a standard functional dependency
// X → Y: a single pattern row of wildcards (§2, Fig. 2).
func FD(name string, s *relation.Schema, lhs, rhs []string) (*CFD, error) {
	row := make([]Cell, len(lhs)+len(rhs))
	for i := range row {
		row[i] = W
	}
	return New(name, s, lhs, rhs, row)
}

// String renders the CFD header, e.g. "phi1: [AC, PN] -> [STR, CT, ST]".
func (φ *CFD) String() string {
	l := make([]string, len(φ.LHS))
	for i, a := range φ.LHS {
		l[i] = φ.Schema.Attr(a)
	}
	r := make([]string, len(φ.RHS))
	for i, a := range φ.RHS {
		r[i] = φ.Schema.Attr(a)
	}
	return fmt.Sprintf("%s: [%s] -> [%s]", φ.Name, strings.Join(l, ", "), strings.Join(r, ", "))
}

// EmbeddedFD returns a copy of φ whose tableau is collapsed to the single
// all-wildcard row — the standard FD embedded in φ (§2). The experiment of
// paper Fig. 8 repairs with embedded FDs to quantify the value of patterns.
func (φ *CFD) EmbeddedFD() *CFD {
	row := make([]Cell, len(φ.LHS)+len(φ.RHS))
	for i := range row {
		row[i] = W
	}
	return &CFD{
		Name:    φ.Name + "_fd",
		Schema:  φ.Schema,
		LHS:     append([]int(nil), φ.LHS...),
		RHS:     append([]int(nil), φ.RHS...),
		Tableau: [][]Cell{row},
	}
}

// Normal is a CFD in the paper's normal form: (R: X → A, tp) with a single
// RHS attribute and a single pattern tuple (§2). All repair algorithms
// work on normal-form CFDs.
type Normal struct {
	Name   string
	Schema *relation.Schema
	X      []int  // LHS attribute positions
	A      int    // RHS attribute position
	TpX    []Cell // pattern over X
	TpA    Cell   // pattern over A
	Source *CFD   // the general CFD this row was normalized from (may be nil)
}

// ConstantRHS reports whether tp[A] is a constant. Constant-RHS CFDs can
// be violated by a single tuple (§3.1 case 1); variable-RHS CFDs need a
// pair of tuples (case 2). The split drives paper Figs. 14–15.
func (n *Normal) ConstantRHS() bool { return !n.TpA.Wildcard }

// MatchesLHS reports t[X] ≼ tp[X].
func (n *Normal) MatchesLHS(t *relation.Tuple) bool {
	for i, a := range n.X {
		if !MatchValue(t.Vals[a], n.TpX[i]) {
			return false
		}
	}
	return true
}

// String renders the normal CFD with its pattern.
func (n *Normal) String() string {
	xs := make([]string, len(n.X))
	ps := make([]string, len(n.X))
	for i, a := range n.X {
		xs[i] = n.Schema.Attr(a)
		ps[i] = n.TpX[i].String()
	}
	return fmt.Sprintf("%s: [%s] -> %s, (%s || %s)",
		n.Name, strings.Join(xs, ", "), n.Schema.Attr(n.A),
		strings.Join(ps, ", "), n.TpA.String())
}

// Normalize rewrites φ into the paper's normal form: one Normal per
// (pattern row, RHS attribute) pair. If an attribute appears in both X
// and Y, its LHS and RHS pattern cells are kept separate (tp[AL], tp[AR]).
func (φ *CFD) Normalize() []*Normal {
	var out []*Normal
	for ri, row := range φ.Tableau {
		lhsCells := row[:len(φ.LHS)]
		for yi, a := range φ.RHS {
			n := &Normal{
				Name:   fmt.Sprintf("%s#%d.%s", φ.Name, ri, φ.Schema.Attr(a)),
				Schema: φ.Schema,
				X:      append([]int(nil), φ.LHS...),
				A:      a,
				TpX:    append([]Cell(nil), lhsCells...),
				TpA:    row[len(φ.LHS)+yi],
				Source: φ,
			}
			out = append(out, n)
		}
	}
	return out
}

// NormalizeAll normalizes a set of general CFDs.
func NormalizeAll(cfds []*CFD) []*Normal {
	var out []*Normal
	for _, φ := range cfds {
		out = append(out, φ.Normalize()...)
	}
	return out
}
