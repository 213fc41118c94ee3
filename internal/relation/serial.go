package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The cursor and primitives every binary payload of the durability stack
// is read through (internal/wal, internal/store). The layouts themselves
// live with their writers — internal/wal's package comment is the
// reference — and share these pieces:
//
//	uvarint / varint   encoding/binary's, the shortest form only (a
//	                   signed varint zig-zag encoded)
//	string             len(uvarint) byte*              (Decoder.Str)
//	weights            wflag(u8) weight*               (Decoder.Weights)
//	weight             float64 bits (u64 little-endian), exactly arity
//	                   of them iff wflag == 1
//	cell               uvarint: 0 for null, k+1 for entry k of a string
//	                   table (an image's, a WAL file's, a shipped
//	                   record's, or dict.log's: a Dict's value id)
//
// No value is spelled out inline: every payload that carries values
// writes each distinct string once, in its table, and its cells as
// uvarints. Weights round-trip bit-exactly (float64 bit patterns, not
// decimal text), which the recovery path needs: a restored tuple must
// score identically under the cost model.

// UvarintLen is the length of x's unsigned varint encoding.
func UvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// Decoder is the one cursor every payload decoder in the durability
// stack reads through — batches and snapshots in internal/wal, manifests
// in internal/store. It latches the first error,
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
