package relation

import (
	"encoding/binary"
	"fmt"
)

// KeyMap numbers the projections of tuples onto one attribute set, each
// given as its interned value ids: the one encoding of a projection as a
// map key. Equality is exact at every arity. A projection of one or two
// attributes packs into a single 64-bit word, so its lookup takes Go's
// 64-bit map path; a wider one packs into wideKey, whose spill string sends
// it through the generic hasher. Which of the two a map uses follows from
// the arity it is made for, the size of the attribute set; every id slice
// handed to it must have that length.
type KeyMap struct {
	arity int
	word  map[uint64]int32  // arity ≤ 2
	wide  map[wideKey]int32 // arity > 2
}

// wideKey holds ids 0–3 of a wide projection in lo and hi and spills the
// rest into ext, four little-endian bytes each.
type wideKey struct {
	lo, hi uint64
	ext    string
}

// NewKeyMap returns an empty map for projections of the given arity, sized
// for hint keys.
func NewKeyMap(arity, hint int) KeyMap {
	if arity <= 2 {
		return KeyMap{arity: arity, word: make(map[uint64]int32, hint)}
	}
	return KeyMap{arity: arity, wide: make(map[wideKey]int32, hint)}
}

// Get returns the number filed under ids and whether there is one.
func (m *KeyMap) Get(ids []ValueID) (int32, bool) {
	if m.word != nil {
		v, ok := m.word[m.packWord(ids)]
		return v, ok
	}
	v, ok := m.wide[m.packWide(ids)]
	return v, ok
}

// Put files v under ids.
func (m *KeyMap) Put(ids []ValueID, v int32) {
	if m.word != nil {
		m.word[m.packWord(ids)] = v
	} else {
		m.wide[m.packWide(ids)] = v
	}
}

// Delete unfiles ids.
func (m *KeyMap) Delete(ids []ValueID) {
	if m.word != nil {
		delete(m.word, m.packWord(ids))
	} else {
		delete(m.wide, m.packWide(ids))
	}
}

// Len returns the number of keys filed.
func (m *KeyMap) Len() int { return len(m.word) + len(m.wide) }

func (m *KeyMap) packWord(ids []ValueID) uint64 {
	m.checkArity(ids)
	var k uint64
	for i, id := range ids {
		k |= uint64(id) << (32 * i)
	}
	return k
}

func (m *KeyMap) packWide(ids []ValueID) wideKey {
	m.checkArity(ids)
	k := wideKey{lo: uint64(ids[0]) | uint64(ids[1])<<32, hi: uint64(ids[2])}
	if len(ids) > 3 {
		k.hi |= uint64(ids[3]) << 32
	}
	if len(ids) > 4 {
		var buf [32]byte
		b := buf[:0]
		for _, id := range ids[4:] {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		k.ext = string(b)
	}
	return k
}

// checkArity panics unless ids has the map's arity: a shorter projection
// would otherwise read as one padded with NullID.
func (m *KeyMap) checkArity(ids []ValueID) {
	if len(ids) != m.arity {
		panic(fmt.Sprintf("relation: KeyMap of arity %d given %d ids", m.arity, len(ids)))
	}
}
