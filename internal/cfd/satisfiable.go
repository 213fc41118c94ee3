package cfd

import (
	"fmt"

	"cfdclean/internal/relation"
)

// Satisfiable decides whether a non-empty database exists satisfying all
// CFDs in sigma (§2). The repair algorithms require a satisfiable Σ.
//
// The check exploits two facts. First, a single-tuple database never
// triggers case-2 (variable-RHS) violations, and every tuple of any
// satisfying database individually satisfies all constant-RHS rules, so Σ
// is satisfiable iff a single tuple satisfying the constant-RHS rules
// exists. Second, over infinite string domains a "fresh" value — distinct
// from every constant mentioned in Σ — always exists, so the only forced
// assignments are those reachable by unit propagation: a rule whose LHS
// cells are all wildcards or constants already forced must fire. If
// propagation derives two distinct constants for one attribute, Σ is
// unsatisfiable; otherwise unassigned attributes take fresh values and no
// further rule can fire. (The general intractability result in [6]
// concerns finite attribute domains; with string-valued attributes the
// propagation above is complete and runs in O(|Σ|²).)
//
// The returned witness maps attribute positions to the forced constants
// (attributes free to take any value are absent).
func Satisfiable(sigma []*Normal) (witness map[int]string, err error) {
	assigned := make(map[int]string)
	type rule struct{ n *Normal }
	var rules []rule
	for _, n := range sigma {
		if n.ConstantRHS() {
			rules = append(rules, rule{n})
		}
	}
	fired := make([]bool, len(rules))
	for {
		progress := false
		for i, r := range rules {
			if fired[i] {
				continue
			}
			n := r.n
			matched := true
			for j, a := range n.X {
				c := n.TpX[j]
				if c.Wildcard {
					continue // any (non-null) value matches
				}
				v, ok := assigned[a]
				if !ok || v != c.Const {
					matched = false
					break
				}
			}
			if !matched {
				continue
			}
			fired[i] = true
			progress = true
			if v, ok := assigned[n.A]; ok {
				if v != n.TpA.Const {
					return nil, fmt.Errorf("cfd: unsatisfiable: %s forces %s = %q but %q was already forced",
						n.Name, n.Schema.Attr(n.A), n.TpA.Const, v)
				}
				continue
			}
			assigned[n.A] = n.TpA.Const
		}
		if !progress {
			break
		}
	}
	return assigned, nil
}

// WitnessTuple materializes a single-tuple relation satisfying sigma,
// using the forced constants from Satisfiable and a fresh constant
// elsewhere. Returns an error if sigma is unsatisfiable. Used in tests
// and as a sanity check for user-supplied constraint files.
func WitnessTuple(s *relation.Schema, sigma []*Normal) (*relation.Tuple, error) {
	w, err := Satisfiable(sigma)
	if err != nil {
		return nil, err
	}
	// A value that no pattern constant equals: grow a marker until unique.
	fresh := "\x01fresh"
	for {
		collision := false
		for _, n := range sigma {
			for _, c := range n.TpX {
				if !c.Wildcard && c.Const == fresh {
					collision = true
				}
			}
			if !n.TpA.Wildcard && n.TpA.Const == fresh {
				collision = true
			}
		}
		if !collision {
			break
		}
		fresh += "'"
	}
	t := &relation.Tuple{ID: 1, Vals: make([]relation.Value, s.Arity())}
	for i := range t.Vals {
		if v, ok := w[i]; ok {
			t.Vals[i] = relation.S(v)
		} else {
			t.Vals[i] = relation.S(fresh)
		}
	}
	return t, nil
}
