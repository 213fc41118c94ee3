// Package eqclass implements the equivalence classes of tuple attributes
// that drive the batch-repair algorithm (§4.1). An equivalence class E is
// a set of (tuple, attribute) pairs that the repair has decided must share
// one value, its target value targ(E). Targets upgrade monotonically
//
//	'_'  →  constant a  →  null
//
// ('_' = not yet fixed, null = cannot be made certain); a target never
// moves from one constant to another and never leaves null. Separating
// "which attribute values must be equal" from "what value they take"
// lets the algorithm defer value assignment and avoid poor local
// decisions (paper Example 4.1).
//
// A cell (t, A) is named by a number the caller chooses from a dense range
// [0, n): BATCHREPAIR numbers it position(t)·arity + A, where position(t)
// is t's index in the working relation's tuple slice. The working copy is
// never reordered during a run (the repair only updates cells), so the
// number stays the cell's for the whole run, and the class manager finds
// a cell's node by indexing a table of n entries instead of hashing.
package eqclass

import (
	"fmt"

	"cfdclean/internal/relation"
)

// Key identifies one attribute of one tuple, the paper's (t, A) pair, by
// its cell number in [0, n) for the n the manager was created with.
type Key int32

// Kind is the state of a class's target value.
type Kind int

const (
	// Unset is the paper's '_': the target is not yet fixed.
	Unset Kind = iota
	// Const: the class will take a specific constant.
	Const
	// Null: the value cannot be made certain; the class takes SQL null.
	Null
)

func (k Kind) String() string {
	switch k {
	case Unset:
		return "_"
	case Const:
		return "const"
	case Null:
		return "null"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// class is a union-find node; fields are meaningful at roots only.
type class struct {
	parent int
	size   int
	kind   Kind
	// val is the interned id of the constant target (kind == Const).
	// Storing the id instead of the string makes target comparisons and
	// merges O(1) integer operations.
	val     relation.ValueID
	key     Key   // the cell this node was registered for
	members []Key // maintained at the root
}

// Classes manages the equivalence classes over (tuple, attribute) pairs.
// Classes are created lazily: every key starts in its own singleton class
// with target '_'. Constant targets are interned in the dictionary the
// manager was created with (normally the working relation's).
type Classes struct {
	dict  *relation.Dict
	nodes []class // in registration order
	// index[k] is the node of key k plus one; 0 means k is unregistered.
	index []int32

	assigned int // classes whose target is Const or Null (roots only)
}

// New creates an empty class manager over the keys [0, n), interning
// constant targets in dict; a nil dict gets a private dictionary. The key
// index costs four bytes a key.
func New(dict *relation.Dict, n int) *Classes {
	if dict == nil {
		dict = relation.NewDict()
	}
	return &Classes{dict: dict, index: make([]int32, max(n, 0))}
}

// Reset empties the manager for reuse, keeping its dictionary and the
// allocated node table and key index; only the index entries of the keys
// registered since the last reset are cleared. BATCHREPAIR runs one
// equivalence-class universe per violation-graph component; Reset is what
// lets it reuse one Classes across the components instead of reallocating
// per component.
func (c *Classes) Reset() {
	for i := range c.nodes {
		c.index[c.nodes[i].key] = 0
	}
	c.nodes = c.nodes[:0]
	c.assigned = 0
}

func (c *Classes) node(k Key) int {
	if i := c.index[k]; i != 0 {
		return int(i) - 1
	}
	i := len(c.nodes)
	c.nodes = append(c.nodes, class{parent: i, size: 1, key: k, members: []Key{k}})
	c.index[k] = int32(i + 1)
	return i
}

func (c *Classes) find(i int) int {
	for c.nodes[i].parent != i {
		c.nodes[i].parent = c.nodes[c.nodes[i].parent].parent
		i = c.nodes[i].parent
	}
	return i
}

// Target returns the target kind and constant (when kind is Const) of the
// class containing k.
func (c *Classes) Target(k Key) (Kind, string) {
	r := c.find(c.node(k))
	n := &c.nodes[r]
	if n.kind == Const {
		return Const, c.dict.Str(n.val)
	}
	return n.kind, ""
}

// TargetID returns the target kind and the interned constant id of k's
// class; the id is only meaningful when kind is Const.
func (c *Classes) TargetID(k Key) (Kind, relation.ValueID) {
	r := c.find(c.node(k))
	return c.nodes[r].kind, c.nodes[r].val
}

// Value renders the target of k's class as a relation value; ok is false
// while the target is still '_'.
func (c *Classes) Value(k Key) (v relation.Value, ok bool) {
	kind, id := c.TargetID(k)
	switch kind {
	case Const:
		return c.dict.Value(id), true
	case Null:
		return relation.NullValue, true
	default:
		return relation.Value{}, false
	}
}

// Members returns the keys in k's class (shared slice; do not modify).
func (c *Classes) Members(k Key) []Key {
	r := c.find(c.node(k))
	return c.nodes[r].members
}

// Size returns |eq(k)|.
func (c *Classes) Size(k Key) int {
	r := c.find(c.node(k))
	return c.nodes[r].size
}

// Peek is Size without registering k: a key that no operation has named
// yet is alone in its class, so it gives 1. Registration is visible (Keys,
// NumClasses, the order Roots visits classes in), so a read that must not
// leave a trace — a cache check — asks Peek.
func (c *Classes) Peek(k Key) int {
	i := c.index[k]
	if i == 0 {
		return 1
	}
	return c.nodes[c.find(int(i)-1)].size
}

// SameClass reports whether k1 and k2 are in one class. It registers
// neither key: one that no operation has named yet is alone in its class.
func (c *Classes) SameClass(k1, k2 Key) bool {
	if k1 == k2 {
		return true
	}
	i1, i2 := c.index[k1], c.index[k2]
	return i1 != 0 && i2 != 0 && c.find(int(i1)-1) == c.find(int(i2)-1)
}

// SetConst upgrades the target of k's class from '_' to the constant v.
// It fails if the target is already a different constant or null — those
// upgrades are irreversible (§4.1).
func (c *Classes) SetConst(k Key, v string) error {
	r := c.find(c.node(k))
	id := c.dict.InternStr(v)
	switch c.nodes[r].kind {
	case Unset:
		c.nodes[r].kind = Const
		c.nodes[r].val = id
		c.assigned++
		return nil
	case Const:
		if c.nodes[r].val == id {
			return nil
		}
		return fmt.Errorf("eqclass: target already fixed to %q, cannot change to %q", c.dict.Str(c.nodes[r].val), v)
	default:
		return fmt.Errorf("eqclass: target already null, cannot set constant %q", v)
	}
}

// SetNull upgrades the target of k's class to null. Always permitted:
// null is the top of the upgrade order.
func (c *Classes) SetNull(k Key) {
	r := c.find(c.node(k))
	if c.nodes[r].kind == Unset {
		c.assigned++
	}
	c.nodes[r].kind = Null
	c.nodes[r].val = relation.NullID
}

// CanMerge reports whether the classes of k1 and k2 may be merged under
// the rules of §4.1 case 2: neither target is null and they do not carry
// distinct constants. (When one side is null the violation is already
// resolved by the null semantics — case 2.3 — so no merge is needed;
// distinct constants are case 2.2 and require an LHS edit instead.)
func (c *Classes) CanMerge(k1, k2 Key) bool {
	r1, r2 := c.find(c.node(k1)), c.find(c.node(k2))
	if r1 == r2 {
		return true
	}
	n1, n2 := &c.nodes[r1], &c.nodes[r2]
	if n1.kind == Null || n2.kind == Null {
		return false
	}
	if n1.kind == Const && n2.kind == Const && n1.val != n2.val {
		return false
	}
	return true
}

// Merge unions the classes of k1 and k2 (§4.1 case 2.1). The resulting
// target is '_' if both were '_', otherwise the constant carried by
// either side. Merge fails exactly when CanMerge is false.
func (c *Classes) Merge(k1, k2 Key) error {
	r1, r2 := c.find(c.node(k1)), c.find(c.node(k2))
	if r1 == r2 {
		return nil
	}
	if !c.CanMerge(k1, k2) {
		n1, n2 := c.nodes[r1], c.nodes[r2]
		return fmt.Errorf("eqclass: cannot merge targets %v(%q) and %v(%q)",
			n1.kind, c.dict.Str(n1.val), n2.kind, c.dict.Str(n2.val))
	}
	// Weighted union: attach the smaller tree under the larger.
	if c.nodes[r1].size < c.nodes[r2].size {
		r1, r2 = r2, r1
	}
	n1, n2 := &c.nodes[r1], &c.nodes[r2]
	// Combine targets.
	switch {
	case n1.kind == Const && n2.kind == Const:
		c.assigned-- // two assigned classes become one
	case n2.kind == Const:
		n1.kind, n1.val = Const, n2.val
	}
	n1.size += n2.size
	n1.members = append(n1.members, n2.members...)
	n2.members = nil
	n2.parent = r1
	return nil
}

// NumClasses returns the current number of distinct classes among the keys
// seen so far — the paper's N, which never increases.
func (c *Classes) NumClasses() int {
	roots := 0
	for i := range c.nodes {
		if c.nodes[i].parent == i {
			roots++
		}
	}
	return roots
}

// NumAssigned returns the number of classes whose target is a constant or
// null — the paper's H, which never decreases. Together with NumClasses
// it witnesses the termination argument of Theorem 4.2.
func (c *Classes) NumAssigned() int { return c.assigned }

// Keys returns every key registered so far, in registration order.
func (c *Classes) Keys() []Key {
	out := make([]Key, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.nodes[i].key
	}
	return out
}

// Roots invokes f once per class with any representative key and the
// class target.
func (c *Classes) Roots(f func(rep Key, kind Kind, val string, members []Key)) {
	for i := range c.nodes {
		if c.nodes[i].parent != i || len(c.nodes[i].members) == 0 {
			continue
		}
		n := &c.nodes[i]
		val := ""
		if n.kind == Const {
			val = c.dict.Str(n.val)
		}
		f(n.members[0], n.kind, val, n.members)
	}
}
