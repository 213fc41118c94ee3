package server

import (
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"
)

// A hand-written decoder for exactly the JSON POST .../apply and
// .../ingest accept,
//
//	{"inserts":[{"id":1,"vals":["a",null],"w":[0.5,1]}],
//	 "deletes":[1,2],
//	 "sets":[{"id":1,"attr":"CT","value":null}]}
//
// filling the same ApplyRequest encoding/json fills, without reflection.
// It answers only when it is certain: exact lower-case keys seen at most
// once per object, null only as a vals element or a set's value, numbers
// in JSON's grammar that strconv parses without error, nothing but
// whitespace after the closing brace. On anything else — "Inserts", a
// duplicate key (the stdlib merges), an unknown field, 1e999, a syntax
// error, an empty body — it declines, and the caller hands the same bytes
// to decodeJSON: every error string, and every value outside this subset,
// is encoding/json's by construction. FuzzApplyDecodeVsStdlib holds the
// two to each other on whatever this one accepts.

// decodeApplyRequest decodes b into ar and reports whether it did; on
// false ar is untouched. No decoded string or slice aliases b.
func decodeApplyRequest(b []byte, ar *ApplyRequest) bool {
	d := applyDecoder{b: b, ok: true}
	var out ApplyRequest
	d.object(func(key []byte) uint8 {
		switch string(key) {
		case "inserts":
			out.Inserts = []WireTuple{}
			d.array(func() { out.Inserts = append(out.Inserts, d.tuple()) })
			return 1
		case "deletes":
			out.Deletes = []int64{}
			d.array(func() { out.Deletes = append(out.Deletes, d.int()) })
			return 2
		case "sets":
			out.Sets = []WireSet{}
			d.array(func() { out.Sets = append(out.Sets, d.set()) })
			return 4
		}
		return 0
	})
	if d.skipSpace(); !d.ok || d.i != len(b) {
		return false
	}
	*ar = out
	return true
}

// applyDecoder is a latching cursor over one body: the first thing it is
// not sure of clears ok and moves i to the end, so every loop winds down
// without a check at each call site.
type applyDecoder struct {
	b  []byte
	i  int
	ok bool
	// Scratch the arrays of one tuple are collected in, so what the tuple
	// keeps is allocated once at its exact size — nothing is sized from a
	// guess a hostile body could inflate.
	strs   []string
	nulls  []bool
	floats []float64
}

func (d *applyDecoder) fail() {
	d.ok = false
	d.i = len(d.b)
}

func (d *applyDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next non-space byte.
func (d *applyDecoder) eat(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *applyDecoder) expect(c byte) {
	if !d.eat(c) {
		d.fail()
	}
}

// array calls elem once per element of the array that comes next.
func (d *applyDecoder) array(elem func()) {
	d.expect('[')
	if d.eat(']') {
		return
	}
	for d.ok {
		elem()
		if d.eat(']') {
			return
		}
		d.expect(',')
	}
}

// object calls member with each key of the object that comes next, the
// cursor on that key's value; member answers the key's bit, 0 for a key it
// does not know, and a bit seen twice declines like an unknown key. A key
// is compared as its raw bytes, so one spelled with an escape matches
// nothing.
func (d *applyDecoder) object(member func(key []byte) (bit uint8)) {
	d.expect('{')
	if d.eat('}') {
		return
	}
	for seen := uint8(0); d.ok; {
		d.expect('"')
		start := d.i
		for d.i < len(d.b) && d.b[d.i] != '"' {
			d.i++
		}
		key := d.b[start:d.i]
		d.i++ // the closing quote; past the end the expect below fails
		d.expect(':')
		bit := member(key)
		if bit == 0 || seen&bit != 0 {
			d.fail()
		}
		seen |= bit
		if d.eat('}') {
			return
		}
		d.expect(',')
	}
}

func (d *applyDecoder) tuple() (wt WireTuple) {
	d.object(func(key []byte) uint8 {
		switch string(key) {
		case "id":
			wt.ID = d.int()
			return 1
		case "vals":
			wt.Vals = d.vals()
			return 2
		case "w":
			d.floats = d.floats[:0]
			d.array(func() { d.floats = append(d.floats, d.float()) })
			wt.W = append(make([]float64, 0, len(d.floats)), d.floats...)
			return 4
		}
		return 0
	})
	return wt
}

func (d *applyDecoder) set() (ws WireSet) {
	d.object(func(key []byte) uint8 {
		switch string(key) {
		case "id":
			ws.ID = d.int()
			return 1
		case "attr":
			ws.Attr = d.str()
			return 2
		case "value":
			if s, null := d.nullableStr(); !null {
				ws.Value = &s
			}
			return 4
		}
		return 0
	})
	return ws
}

// vals decodes an array of strings and nulls: one backing array for the
// tuple's strings and one for its pointers, in place of the stdlib's
// allocation per element.
func (d *applyDecoder) vals() []*string {
	d.strs, d.nulls = d.strs[:0], d.nulls[:0]
	d.array(func() {
		s, null := d.nullableStr()
		d.strs = append(d.strs, s)
		d.nulls = append(d.nulls, null)
	})
	strs := append(make([]string, 0, len(d.strs)), d.strs...)
	vals := make([]*string, len(strs))
	for i := range strs {
		if !d.nulls[i] {
			vals[i] = &strs[i]
		}
	}
	return vals
}

func (d *applyDecoder) nullableStr() (s string, null bool) {
	if !d.eat('n') {
		return d.str(), false
	}
	if d.i+3 > len(d.b) || string(d.b[d.i:d.i+3]) != "ull" {
		d.fail()
	} else {
		d.i += 3
	}
	return "", true
}

// str decodes a string literal into a copy. Printable ASCII and valid
// UTF-8 without a backslash are their own decoding; a literal with an
// escape or a broken sequence goes through encoding/json alone (its
// unquote is what the struct decoder would run on it), and one with a
// raw control byte is a syntax error.
func (d *applyDecoder) str() string {
	d.expect('"')
	start := d.i
	escaped, ascii := false, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			lit := d.b[start:d.i]
			d.i++
			if !escaped && (ascii || utf8.Valid(lit)) {
				return string(lit)
			}
			var s string
			if json.Unmarshal(d.b[start-1:d.i], &s) != nil {
				d.fail()
			}
			return s
		case c == '\\':
			escaped = true
			d.i++ // whatever is escaped, a quote included
		case c < ' ':
			d.fail()
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.fail() // unterminated
	return ""
}

// digits consumes [0-9]* and reports whether there was any.
func (d *applyDecoder) digits() bool {
	from := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > from
}

// one consumes the next byte if it is one of set.
func (d *applyDecoder) one(set string) bool {
	if d.i < len(d.b) && strings.IndexByte(set, d.b[d.i]) >= 0 {
		d.i++
		return true
	}
	return false
}

// number returns the literal that comes next if it is a JSON number:
// -? (0 | [1-9][0-9]*), and with frac also (. [0-9]+)? ([eE] [+-]? [0-9]+)?.
// A digit after a leading 0 is left for the caller's delimiter check to
// trip on. strconv accepts more than this grammar (hex, underscores,
// "inf"), hence the check first — as the stdlib's scanner does before its
// ParseFloat.
func (d *applyDecoder) number(frac bool) []byte {
	d.skipSpace()
	start := d.i
	d.one("-")
	ok := d.one("0") || d.digits()
	if ok && frac && d.one(".") {
		ok = d.digits()
	}
	if ok && frac && d.one("eE") {
		d.one("+-")
		ok = d.digits()
	}
	if !ok {
		d.fail()
		return nil
	}
	return d.b[start:d.i]
}

func (d *applyDecoder) int() int64 {
	n, err := strconv.ParseInt(string(d.number(false)), 10, 64)
	if err != nil {
		d.fail() // out of range, or number already declined
	}
	return n
}

func (d *applyDecoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number(true)), 64)
	if err != nil {
		d.fail()
	}
	return f
}
