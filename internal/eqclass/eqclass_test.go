package eqclass

import (
	"testing"
	"testing/quick"
)

// The tests number cell (t, A) as 2t + A over tuples 0–255 and two
// attributes, the way BATCHREPAIR numbers position(t)·arity + A.
const cells = 512

func k(t int64, a int) Key { return Key(2*t + int64(a)) }

func TestSingletonDefaults(t *testing.T) {
	c := New(nil, cells)
	kind, _ := c.Target(k(1, 0))
	if kind != Unset {
		t.Errorf("fresh class target = %v, want Unset", kind)
	}
	if c.Size(k(1, 0)) != 1 {
		t.Error("fresh class size must be 1")
	}
	if _, ok := c.Value(k(1, 0)); ok {
		t.Error("unset target must not produce a value")
	}
}

func TestSetConstUpgrades(t *testing.T) {
	c := New(nil, cells)
	if err := c.SetConst(k(1, 0), "NYC"); err != nil {
		t.Fatal(err)
	}
	kind, v := c.Target(k(1, 0))
	if kind != Const || v != "NYC" {
		t.Errorf("target = %v %q", kind, v)
	}
	// Idempotent on the same constant.
	if err := c.SetConst(k(1, 0), "NYC"); err != nil {
		t.Errorf("same-constant set must succeed: %v", err)
	}
	// Constant-to-constant is forbidden (§4.1).
	if err := c.SetConst(k(1, 0), "PHI"); err == nil {
		t.Error("constant-to-constant upgrade must fail")
	}
	// Constant-to-null is allowed; null is terminal.
	c.SetNull(k(1, 0))
	if kind, _ := c.Target(k(1, 0)); kind != Null {
		t.Error("SetNull must stick")
	}
	if err := c.SetConst(k(1, 0), "NYC"); err == nil {
		t.Error("null-to-constant must fail")
	}
	if v, ok := c.Value(k(1, 0)); !ok || !v.Null {
		t.Error("null target must produce the null value")
	}
}

func TestMergeCombinesTargets(t *testing.T) {
	c := New(nil, cells)
	// unset + unset -> unset
	if err := c.Merge(k(1, 0), k(2, 0)); err != nil {
		t.Fatal(err)
	}
	if kind, _ := c.Target(k(1, 0)); kind != Unset {
		t.Error("unset+unset must stay unset")
	}
	if !c.SameClass(k(1, 0), k(2, 0)) {
		t.Error("merge must join classes")
	}
	if c.Size(k(1, 0)) != 2 {
		t.Errorf("merged size = %d", c.Size(k(1, 0)))
	}
	// unset + const -> const, visible from both sides.
	c.SetConst(k(3, 0), "PHI")
	if err := c.Merge(k(1, 0), k(3, 0)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []Key{k(1, 0), k(2, 0), k(3, 0)} {
		kind, v := c.Target(key)
		if kind != Const || v != "PHI" {
			t.Errorf("Target(%v) = %v %q, want Const PHI", key, kind, v)
		}
	}
}

func TestMergeRejections(t *testing.T) {
	c := New(nil, cells)
	c.SetConst(k(1, 0), "NYC")
	c.SetConst(k(2, 0), "PHI")
	if c.CanMerge(k(1, 0), k(2, 0)) {
		t.Error("distinct constants must not merge (case 2.2)")
	}
	if err := c.Merge(k(1, 0), k(2, 0)); err == nil {
		t.Error("Merge must fail on distinct constants")
	}
	// Same constants merge fine.
	c.SetConst(k(3, 0), "NYC")
	if err := c.Merge(k(1, 0), k(3, 0)); err != nil {
		t.Errorf("equal constants must merge: %v", err)
	}
	// Null never merges (case 2.3: violation already resolved).
	c.SetNull(k(4, 0))
	if c.CanMerge(k(4, 0), k(5, 0)) {
		t.Error("null class must not merge")
	}
	// Self-merge is trivially fine even when null.
	if !c.CanMerge(k(4, 0), k(4, 0)) {
		t.Error("self merge must be allowed")
	}
	if err := c.Merge(k(4, 0), k(4, 0)); err != nil {
		t.Error("self merge must succeed")
	}
}

func TestMembers(t *testing.T) {
	c := New(nil, cells)
	c.Merge(k(1, 0), k(2, 0))
	c.Merge(k(1, 0), k(3, 1))
	ms := c.Members(k(2, 0))
	if len(ms) != 3 {
		t.Fatalf("members = %v", ms)
	}
	seen := make(map[Key]bool)
	for _, m := range ms {
		seen[m] = true
	}
	for _, want := range []Key{k(1, 0), k(2, 0), k(3, 1)} {
		if !seen[want] {
			t.Errorf("members missing %v", want)
		}
	}
}

// TestPeek: Peek answers Size for every key and registers none — an
// unnamed key is a singleton, and asking leaves Keys and NumClasses as
// they were.
func TestPeek(t *testing.T) {
	c := New(nil, cells)
	if got := c.Peek(k(9, 0)); got != 1 {
		t.Errorf("Peek of an unnamed key = %d, want 1", got)
	}
	c.Merge(k(1, 0), k(2, 0))
	c.Merge(k(2, 0), k(3, 0))
	for _, key := range []Key{k(1, 0), k(2, 0), k(3, 0), k(4, 0)} {
		if got, want := c.Peek(key), c.Size(key); got != want {
			t.Errorf("Peek(%v) = %d, Size = %d", key, got, want)
		}
	}
	c.Peek(k(5, 0))
	if n := len(c.Keys()); n != 4 || c.NumClasses() != 2 {
		t.Errorf("after Peek: %d keys, %d classes; want 4 keys (Size registered t4), 2 classes", n, c.NumClasses())
	}
}

// TestTerminationMeasures verifies the invariants behind Theorem 4.2:
// merging reduces N (class count) and never reduces H (assigned count);
// target upgrades increase H.
func TestTerminationMeasures(t *testing.T) {
	c := New(nil, cells)
	for i := int64(1); i <= 6; i++ {
		c.Target(k(i, 0)) // register
	}
	if c.NumClasses() != 6 || c.NumAssigned() != 0 {
		t.Fatalf("initial N=%d H=%d", c.NumClasses(), c.NumAssigned())
	}
	c.Merge(k(1, 0), k(2, 0))
	if c.NumClasses() != 5 {
		t.Errorf("N after merge = %d, want 5", c.NumClasses())
	}
	c.SetConst(k(3, 0), "x")
	if c.NumAssigned() != 1 {
		t.Errorf("H after SetConst = %d, want 1", c.NumAssigned())
	}
	c.SetNull(k(4, 0))
	if c.NumAssigned() != 2 {
		t.Errorf("H after SetNull = %d, want 2", c.NumAssigned())
	}
	// SetNull on an assigned class does not double-count.
	c.SetNull(k(3, 0))
	if c.NumAssigned() != 2 {
		t.Errorf("H after re-null = %d, want 2", c.NumAssigned())
	}
	// Merging const with unset keeps H (const class absorbs).
	c.Merge(k(5, 0), k(6, 0))
	h := c.NumAssigned()
	c.SetConst(k(5, 0), "y")
	if c.NumAssigned() != h+1 {
		t.Errorf("H after const on merged = %d, want %d", c.NumAssigned(), h+1)
	}
	// Merging two const classes with the same value reduces H by one
	// (two assigned classes become one).
	c.SetConst(k(7, 0), "y")
	h = c.NumAssigned()
	if err := c.Merge(k(5, 0), k(7, 0)); err != nil {
		t.Fatal(err)
	}
	if c.NumAssigned() != h-1 {
		t.Errorf("H after const-const merge = %d, want %d", c.NumAssigned(), h-1)
	}
}

func TestRoots(t *testing.T) {
	c := New(nil, cells)
	c.Merge(k(1, 0), k(2, 0))
	c.SetConst(k(1, 0), "v")
	c.Target(k(3, 0))
	var classes, assigned int
	c.Roots(func(rep Key, kind Kind, val string, members []Key) {
		classes++
		if kind == Const {
			assigned++
			if val != "v" || len(members) != 2 {
				t.Errorf("const class: val=%q members=%v", val, members)
			}
		}
	})
	if classes != 2 || assigned != 1 {
		t.Errorf("Roots saw %d classes, %d assigned", classes, assigned)
	}
}

// TestKeysRegistrationOrder: Keys lists every key once, in the order the
// operations first named them — merges, target upgrades and lookups that
// register do not reorder it, and Peek and SameClass register nothing.
func TestKeysRegistrationOrder(t *testing.T) {
	c := New(nil, cells)
	var want []Key
	named := make(map[Key]bool)
	name := func(keys ...Key) {
		for _, key := range keys {
			if !named[key] {
				named[key] = true
				want = append(want, key)
			}
		}
	}
	for i := int64(0); i < 40; i++ {
		a, b := k((i*37)%97, int(i%2)), k((i*53+11)%89, int((i/2)%2))
		switch i % 4 {
		case 0:
			c.Merge(a, b)
			name(a, b)
		case 1:
			c.SetConst(a, "v")
			name(a)
		case 2:
			c.Size(b)
			name(b)
		case 3:
			c.Peek(a)
			c.SameClass(a, b)
		}
	}
	got := c.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys has %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d (registration order %v, got %v)", i, got[i], want[i], want, got)
		}
	}
}

// TestResetForgetsRegisteredKeys: after Reset every key is unregistered
// again and a fresh universe starts, on the same node table and index.
func TestResetForgetsRegisteredKeys(t *testing.T) {
	c := New(nil, cells)
	c.Merge(k(1, 0), k(200, 1))
	c.SetConst(k(1, 0), "x")
	c.SetNull(k(3, 1))
	c.Reset()
	if n := len(c.Keys()); n != 0 || c.NumClasses() != 0 || c.NumAssigned() != 0 {
		t.Fatalf("after Reset: %d keys, N=%d, H=%d; want all 0", n, c.NumClasses(), c.NumAssigned())
	}
	if c.SameClass(k(1, 0), k(200, 1)) || c.Peek(k(1, 0)) != 1 {
		t.Error("Reset must forget the merge")
	}
	if kind, _ := c.Target(k(3, 1)); kind != Unset {
		t.Errorf("target after Reset = %v, want Unset", kind)
	}
	c.Merge(k(200, 1), k(2, 0))
	if got := c.Keys(); len(got) != 3 || got[0] != k(3, 1) || got[1] != k(200, 1) || got[2] != k(2, 0) {
		t.Errorf("Keys after Reset = %v", got)
	}
}

func TestKindString(t *testing.T) {
	if Unset.String() != "_" || Const.String() != "const" || Null.String() != "null" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must render something")
	}
}

// Property: union-find transitivity — after arbitrary merges of unset
// classes, SameClass is an equivalence relation.
func TestUnionFindTransitive(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		c := New(nil, cells)
		for _, p := range pairs {
			c.Merge(k(int64(p[0]), 0), k(int64(p[1]), 0))
		}
		// Transitivity spot-check over the first keys registered.
		keys := c.Keys()
		for i := 0; i < len(keys) && i < 8; i++ {
			for j := 0; j < len(keys) && j < 8; j++ {
				for l := 0; l < len(keys) && l < 8; l++ {
					if c.SameClass(keys[i], keys[j]) && c.SameClass(keys[j], keys[l]) && !c.SameClass(keys[i], keys[l]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: N + (merges that succeeded) stays constant: every successful
// merge of two distinct classes reduces NumClasses by exactly one.
func TestMergeReducesN(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		c := New(nil, cells)
		seen := make(map[Key]bool)
		for _, p := range pairs {
			seen[k(int64(p[0]), 0)] = true
			seen[k(int64(p[1]), 0)] = true
		}
		for key := range seen {
			c.Target(key)
		}
		n := c.NumClasses()
		for _, p := range pairs {
			a, b := k(int64(p[0]), 0), k(int64(p[1]), 0)
			joined := !c.SameClass(a, b)
			if err := c.Merge(a, b); err != nil {
				return false
			}
			if joined {
				n--
			}
			if c.NumClasses() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
