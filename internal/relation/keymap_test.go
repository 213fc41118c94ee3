package relation

import (
	"fmt"
	"testing"
)

// idsKey is the oracle's encoding of a projection: its ids in decimal.
func idsKey(ids []ValueID) string { return fmt.Sprint(ids) }

// keyMapPalette is the ids the tests draw from: null, small ids, ids with
// a bit set in either half of a packed word, and the largest ones.
var keyMapPalette = []ValueID{0, 1, 2, 3, 1 << 8, 1 << 16, 1 << 31, InvalidID - 1, InvalidID}

// keyMapCase holds a KeyMap to a plain map keyed by idsKey after every
// put, get and delete; puts lists every projection ever put.
type keyMapCase struct {
	t      *testing.T
	m      KeyMap
	oracle map[string]int32
	puts   [][]ValueID
}

func newKeyMapCase(t *testing.T, arity int) *keyMapCase {
	return &keyMapCase{t: t, m: NewKeyMap(arity, 0), oracle: make(map[string]int32)}
}

func (c *keyMapCase) put(ids []ValueID, v int32) {
	c.m.Put(ids, v)
	c.oracle[idsKey(ids)] = v
	c.puts = append(c.puts, ids)
	c.get(ids)
}

func (c *keyMapCase) get(ids []ValueID) {
	c.t.Helper()
	got, ok := c.m.Get(ids)
	want, wantOK := c.oracle[idsKey(ids)]
	if got != want || ok != wantOK {
		c.t.Fatalf("arity %d: Get(%v) = %d, %v; the oracle holds %d, %v", len(ids), ids, got, ok, want, wantOK)
	}
	if c.m.Len() != len(c.oracle) {
		c.t.Fatalf("arity %d: Len = %d, the oracle holds %d keys", len(ids), c.m.Len(), len(c.oracle))
	}
}

func (c *keyMapCase) del(ids []ValueID) {
	c.m.Delete(ids)
	delete(c.oracle, idsKey(ids))
	c.get(ids)
}

// TestKeyMapArities files, at every arity from 0 to 6, each projection
// that puts one palette id at one position and the rest at zero or at
// InvalidID, plus the run 1, 2, …, arity and its reverse, and holds the
// map to the oracle while it fills and empties.
func TestKeyMapArities(t *testing.T) {
	for arity := 0; arity <= 6; arity++ {
		c := newKeyMapCase(t, arity)
		var all [][]ValueID
		for _, fill := range []ValueID{0, InvalidID} {
			for pos := 0; pos < max(arity, 1); pos++ {
				for _, id := range keyMapPalette {
					ids := make([]ValueID, arity)
					for i := range ids {
						ids[i] = fill
					}
					if arity > 0 {
						ids[pos] = id
					}
					all = append(all, ids)
				}
			}
		}
		up, down := make([]ValueID, arity), make([]ValueID, arity)
		for i := range up {
			up[i], down[i] = ValueID(i+1), ValueID(arity-i)
		}
		all = append(all, up, down)
		for i, ids := range all {
			c.put(ids, int32(i))
		}
		if arity >= 2 && c.m.Len() < 2 {
			t.Fatalf("arity %d: %v and %v share a key", arity, up, down)
		}
		for _, ids := range all {
			c.get(ids)
		}
		for i, ids := range all {
			if i%2 == 0 {
				c.del(ids)
			}
		}
		for _, ids := range c.puts {
			c.get(ids)
		}
	}
}

// TestKeyMapPairOrder pins the one-word packing's exactness on the cases a
// lossy one would miss: swapped ids, an id against zero, and the largest ids.
func TestKeyMapPairOrder(t *testing.T) {
	m := NewKeyMap(2, 0)
	pairs := [][]ValueID{{1, 2}, {2, 1}, {1, 0}, {0, 1}, {InvalidID, 0}, {0, InvalidID}, {InvalidID, InvalidID}, {InvalidID - 1, InvalidID}}
	for i, p := range pairs {
		m.Put(p, int32(i))
	}
	for i, p := range pairs {
		if got, ok := m.Get(p); !ok || got != int32(i) {
			t.Fatalf("Get(%v) = %d, %v; want %d", p, got, ok, i)
		}
	}
	if m.Len() != len(pairs) {
		t.Fatalf("Len = %d for %d distinct pairs", m.Len(), len(pairs))
	}
}

// TestKeyMapArityMismatchPanics: a projection of the wrong length is a
// caller's bug, and a short one would otherwise read as one padded with
// NullID.
func TestKeyMapArityMismatchPanics(t *testing.T) {
	for _, arity := range []int{1, 2, 3, 5} {
		m := NewKeyMap(arity, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("arity %d: Get of %d ids did not panic", arity, arity-1)
				}
			}()
			m.Get(make([]ValueID, arity-1))
		}()
	}
}

// FuzzKeyMap holds a KeyMap, at a byte-chosen arity from 1 to 6, to a plain
// map keyed by the ids' decimal string under a byte-chosen sequence of
// puts, gets and deletes, each id drawn from the palette.
func FuzzKeyMap(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 1, 1, 2, 2, 1, 2, 0, 2, 1})
	f.Add([]byte{2, 0, 7, 8, 6, 1, 7, 8, 6, 2, 7, 8, 6, 1, 8, 7, 6})
	f.Add([]byte{5, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 7, 2, 1, 2, 3, 4, 5, 6, 1, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arity := 1 + int(data[0])%6
		c := newKeyMapCase(t, arity)
		for i, op := 1, 0; i+arity < len(data) && op < 200; i, op = i+1+arity, op+1 {
			ids := make([]ValueID, arity)
			for j := range ids {
				ids[j] = keyMapPalette[int(data[i+1+j])%len(keyMapPalette)]
			}
			switch data[i] % 3 {
			case 0:
				c.put(ids, int32(op))
			case 1:
				c.get(ids)
			default:
				c.del(ids)
			}
		}
		for _, ids := range c.puts {
			c.get(ids)
		}
	})
}
