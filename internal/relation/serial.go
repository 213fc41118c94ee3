package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Deterministic binary (de)serialization of journal Deltas — the codec
// underneath the write-ahead log (internal/wal). The encoding is a pure
// function of the Delta's visible fields (Kind, T.ID, T.Vals, T.W, Attr,
// Old): no map iteration, no pointers, no interned ids, so the same
// logical delta always serializes to the same bytes regardless of the
// relation (and dictionary) it originated from. Interned ids are *not*
// serialized — they are private to one Relation's dictionary and are
// reassigned when a decoded tuple is inserted somewhere; a decoded Delta
// therefore carries a free-standing tuple (Interned() == false) and
// OldID == InvalidID.
//
// Layout (all integers little-endian or uvarint/varint as noted):
//
//	delta   = kind(u8) id(varint) nvals(uvarint) value* wflag(u8) weight*
//	          attr(uvarint) old(value)
//	value   = 0x00                   (null)
//	        | 0x01 len(uvarint) byte*  (constant)
//	weight  = float64 bits (u64 little-endian), present iff wflag == 1,
//	          exactly nvals of them
//
// Weights round-trip bit-exactly (float64 bit patterns, not decimal
// text), which the recovery path needs: a restored tuple must score
// identically under the cost model.

// AppendDelta appends the canonical binary encoding of d to dst and
// returns the extended slice.
func AppendDelta(dst []byte, d *Delta) []byte {
	dst = append(dst, byte(d.Kind))
	dst = binary.AppendVarint(dst, int64(d.T.ID))
	dst = binary.AppendUvarint(dst, uint64(len(d.T.Vals)))
	for _, v := range d.T.Vals {
		dst = AppendValue(dst, v)
	}
	if d.T.W != nil {
		dst = append(dst, 1)
		for _, w := range d.T.W {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
		}
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(d.Attr))
	dst = AppendValue(dst, d.Old)
	return dst
}

// Delta reads one Delta. The decoded tuple is free-standing: it carries
// no interned ids (and OldID is InvalidID) until a Relation adopts it
// through Insert.
func (d *Decoder) Delta() Delta {
	kind := DeltaKind(d.Byte("kind"))
	if kind > DeltaUpdate {
		d.Failf("unknown delta kind %d", kind)
	}
	t := &Tuple{ID: TupleID(d.Varint("tuple id"))}
	nvals := d.Uvarint("value count")
	// The arity cap mirrors the engine's 64-attribute schema limit and
	// stops a corrupted count from driving a huge allocation.
	if nvals > 1<<16 {
		d.Failf("implausible value count %d", nvals)
	}
	if d.err != nil {
		return Delta{}
	}
	if nvals > 0 {
		t.Vals = make([]Value, nvals)
		for i := range t.Vals {
			t.Vals[i] = d.Value("value")
		}
	}
	t.W = d.Weights(int(nvals))
	attr := d.Uvarint("attribute")
	old := d.Value("old value")
	if d.err != nil {
		return Delta{}
	}
	return Delta{Kind: kind, T: t, Attr: int(attr), Old: old, OldID: InvalidID}
}

// AppendValue appends the canonical binary encoding of one Value:
// 0x00 for null, or 0x01 + uvarint length + bytes for a constant, and
// Decoder.Value is its inverse. Only the Delta encoding (WAL batch
// records) spells values out this way. A snapshot image (internal/wal)
// writes each distinct constant once and its cells as ids; what the two
// formats still share is the string form behind the tag (uvarint length
// + bytes, Decoder.Str), the weight block (Decoder.Weights), the
// varints, and the Decoder that reads them.
func AppendValue(dst []byte, v Value) []byte {
	if v.Null {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
	return append(dst, v.Str...)
}

// UvarintLen is the length of x's unsigned varint encoding.
func UvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// Decoder is the one cursor every payload decoder in the durability
// stack reads through — deltas and values here, batches and snapshots in
// internal/wal, manifests in internal/store. It latches the first error,
// so field-by-field parsing reads linearly without per-field error
// plumbing: after a failure every read returns a zero value, and Done
// reports what went wrong. Every error wraps the sentinel the decoder
// was built with, so each package's callers keep matching their own.
type Decoder struct {
	b        []byte
	pos      int
	err      error
	sentinel error
}

// NewDecoder returns a cursor at the start of b whose errors wrap
// sentinel.
func NewDecoder(b []byte, sentinel error) *Decoder {
	return &Decoder{b: b, sentinel: sentinel}
}

// Failf latches a decode error unless one is latched already — for the
// checks a caller makes on what it read (an implausible count, an
// unknown flag).
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: byte %d: %s", d.sentinel, d.pos, fmt.Sprintf(format, args...))
	}
}

// Err returns the latched error, if any.
func (d *Decoder) Err() error { return d.err }

// Done ends the decode: the latched error if there is one, else an error
// if bytes remain — a payload is consumed exactly or refused.
func (d *Decoder) Done() error {
	if d.pos != len(d.b) {
		d.Failf("%d trailing bytes", len(d.b)-d.pos)
	}
	return d.err
}

// take returns the next n bytes, or nil after latching "truncated at
// what" when fewer remain.
func (d *Decoder) take(n uint64, what string) []byte {
	if d.err == nil && n > uint64(len(d.b)-d.pos) {
		d.Failf("truncated at %s", what)
	}
	if d.err != nil {
		return nil
	}
	p := d.b[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return p
}

// Byte reads one byte.
func (d *Decoder) Byte(what string) byte {
	if p := d.take(1, what); p != nil {
		return p[0]
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64(what string) uint64 {
	if p := d.take(8, what); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uvarint reads an unsigned varint. Only the shortest encoding of a value
// is accepted (AppendUvarint writes no other), so that every payload a
// decoder accepts re-encodes to its own bytes.
func (d *Decoder) Uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.Failf("truncated at %s", what)
		return 0
	}
	if n > 1 && d.b[d.pos+n-1] == 0 {
		d.Failf("overlong varint at %s", what)
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (d *Decoder) Varint(what string) int64 {
	u := d.Uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a uvarint-length-prefixed string.
func (d *Decoder) Str(what string) string {
	return string(d.take(d.Uvarint(what), what))
}

// Value reads one Value; inverse of AppendValue.
func (d *Decoder) Value(what string) Value {
	switch tag := d.Byte(what); tag {
	case 0:
		return NullValue
	case 1:
		return S(d.Str(what))
	default:
		d.Failf("bad value tag %d at %s", tag, what)
		return Value{}
	}
}

// Weights reads a tuple's weight block: a flag byte, then — when the
// flag is 1 — exactly n float64 bit patterns. A flag other than 0 or 1
// is refused: silently dropping weights would let a restored session
// score repairs differently.
func (d *Decoder) Weights(n int) []float64 {
	switch flag := d.Byte("weight flag"); flag {
	case 0:
	case 1:
		if p := d.take(8*uint64(n), "weights"); d.err == nil {
			w := make([]float64, n)
			for i := range w {
				w[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
			}
			return w
		}
	default:
		d.Failf("bad weight flag %d", flag)
	}
	return nil
}
