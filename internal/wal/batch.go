package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"cfdclean/internal/relation"
)

// Batch is one WAL record: a mutation batch a session accepted, with the
// journal Version cursor bracketing it. PrevVersion is the relation's
// mutation counter before the batch's engine pass and Version the counter
// after it — together they totally order records and make replay
// idempotent: a record whose Version is at or below the restored
// session's counter is already contained in the snapshot and is skipped,
// and a record whose PrevVersion does not meet the session's counter
// reveals a gap (a missing or out-of-order log) instead of silently
// corrupting state.
//
// Ops encodes the batch *inputs* (not the engine's output mutations),
// as relation Deltas under the conventions of increpair.OpsToDeltas:
// replay pushes them through the same ApplyOps path the live session
// ran, and the engine's determinism-by-construction guarantees the
// replayed pass rebuilds relation, violation store and counters
// bit-identically. A decoded Delta carries a free-standing tuple (no
// interned ids) and OldID InvalidID.
type Batch struct {
	PrevVersion uint64
	Version     uint64
	Ops         []relation.Delta
}

// strTable numbers strings in the order a scope first uses them: entry k
// is strs[k], and a cell naming it is k+1 (ids[s]). One table is the
// scope of a WAL file's records (Log), of a shipped frame's one record
// (Encode, DecodeBatch) and of the image WriteSnapshot copies.
type strTable struct {
	ids  map[string]uint32
	strs []string
}

// number returns the cell of s, giving s the next entry when the table
// lacks it; fresh reports that it did.
func (t *strTable) number(s string) (cell uint32, fresh bool) {
	if c, ok := t.ids[s]; ok {
		return c, false
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	t.strs = append(t.strs, s)
	t.ids[s] = uint32(len(t.strs))
	return uint32(len(t.strs)), true
}

// cell returns v's cell in t: 0 for null, else its entry's.
func (t *strTable) cell(v relation.Value) uint32 {
	if v.Null {
		return 0
	}
	c, _ := t.number(v.Str)
	return c
}

// truncate drops the entries from n on, so that a record that was not
// written, or did not decode, leaves the table as it found it.
func (t *strTable) truncate(n int) {
	for _, s := range t.strs[n:] {
		delete(t.ids, s)
	}
	clear(t.strs[n:])
	t.strs = t.strs[:n]
}

// Encode renders the batch as a record whose string table is its own: a
// shipped frame's payload, and the first record of a fresh WAL.
func (b *Batch) Encode() []byte {
	return encodeBatch(b, &strTable{})
}

// encodeBatch renders b as a record in the scope of table t: the strings
// no earlier record of the scope declared, in the order b's cells first
// use them, then the ops, each value a cell naming an entry of t.
func encodeBatch(b *Batch, t *strTable) []byte {
	base := len(t.strs)
	// The cells in op order — each op's values, then its old value — so
	// that the second pass writes each without a second lookup.
	var cells []uint32
	for i := range b.Ops {
		op := &b.Ops[i]
		for _, v := range op.T.Vals {
			cells = append(cells, t.cell(v))
		}
		cells = append(cells, t.cell(op.Old))
	}
	out := binary.LittleEndian.AppendUint64(nil, b.PrevVersion)
	out = binary.LittleEndian.AppendUint64(out, b.Version)
	out = binary.AppendUvarint(out, uint64(len(t.strs)-base))
	for _, s := range t.strs[base:] {
		out = appendString(out, s)
	}
	out = binary.AppendUvarint(out, uint64(len(b.Ops)))
	for i := range b.Ops {
		op := &b.Ops[i]
		out = append(out, byte(op.Kind))
		out = binary.AppendVarint(out, int64(op.T.ID))
		out = binary.AppendUvarint(out, uint64(len(op.T.Vals)))
		for _, c := range cells[:len(op.T.Vals)] {
			out = binary.AppendUvarint(out, uint64(c))
		}
		cells = cells[len(op.T.Vals):]
		if op.T.W == nil {
			out = append(out, 0)
		} else {
			out = append(out, 1)
			for _, w := range op.T.W {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
			}
		}
		out = binary.AppendUvarint(out, uint64(op.Attr))
		out = binary.AppendUvarint(out, uint64(cells[0]))
		cells = cells[1:]
	}
	return out
}

// DecodeBatch parses a record Encode wrote: one record in a scope of its
// own.
func DecodeBatch(p []byte) (*Batch, error) {
	return decodeBatch(p, &strTable{})
}

// decodeBatch parses one record in the scope of table t; the strings it
// declares join t behind the entries earlier records declared. It refuses
// every form encodeBatch does not write: a string the scope holds
// already, a cell naming an entry past the table, an entry named before
// an earlier declared one, and a declared string no cell of the record
// uses. A record refused leaves t as it found it.
func decodeBatch(p []byte, t *strTable) (*Batch, error) {
	d := relation.NewDecoder(p, ErrCorrupt)
	b := &Batch{PrevVersion: d.U64("batch prev version"), Version: d.U64("batch version")}
	base := len(t.strs)
	nstrs := d.Uvarint("batch string count")
	for k := uint64(0); k < nstrs && d.Err() == nil; k++ {
		s := d.Str("batch string")
		if d.Err() != nil {
			break
		}
		if c, fresh := t.number(s); !fresh {
			d.Failf("batch string %d repeats entry %d of its scope", k, c-1)
		}
	}
	used := uint64(base) // the first declared entry no cell has named yet
	cell := func(what string) relation.Value {
		c := d.Uvarint(what)
		if c == 0 || d.Err() != nil {
			return relation.NullValue
		}
		switch k := c - 1; {
		case k >= uint64(len(t.strs)):
			d.Failf("cell names entry %d past the %d of its scope", k, len(t.strs))
			return relation.Value{}
		case k > used:
			d.Failf("cell names entry %d before entry %d is first used", k, used)
			return relation.Value{}
		case k == used:
			used++
		}
		return relation.S(t.strs[c-1])
	}
	nops := d.Uvarint("batch op count")
	for i := uint64(0); i < nops && d.Err() == nil; i++ {
		kind := relation.DeltaKind(d.Byte("op kind"))
		if kind > relation.DeltaUpdate {
			d.Failf("unknown op kind %d", kind)
		}
		tp := &relation.Tuple{ID: relation.TupleID(d.Varint("tuple id"))}
		// The arity cap mirrors the engine's 64-attribute schema limit and
		// stops a corrupted count from driving a huge allocation.
		nvals := d.Uvarint("value count")
		if nvals > 1<<16 {
			d.Failf("implausible value count %d", nvals)
		}
		if d.Err() != nil {
			break
		}
		if nvals > 0 {
			tp.Vals = make([]relation.Value, nvals)
			for j := range tp.Vals {
				tp.Vals[j] = cell("cell")
			}
		}
		tp.W = d.Weights(int(nvals))
		attr := d.Uvarint("attribute")
		old := cell("old value cell")
		b.Ops = append(b.Ops, relation.Delta{Kind: kind, T: tp, Attr: int(attr), Old: old, OldID: relation.InvalidID})
	}
	if d.Err() == nil && used != uint64(len(t.strs)) {
		d.Failf("entry %d is declared and used by no cell of its record", used)
	}
	if err := d.Done(); err != nil {
		t.truncate(base)
		return nil, fmt.Errorf("batch record: %w", err)
	}
	return b, nil
}
