package wal

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"cfdclean/internal/relation"
)

// TestSnapTupleLen: the writer sizes each chunk buffer by snapRowLen
// before it encodes the chunk, so the length must be the encoding's —
// tuple-id deltas of every varint width and sign, nulls, cells whose
// image entries take one to five bytes, weights on and off.
func TestSnapTupleLen(t *testing.T) {
	m := &imageIDs{img: []uint32{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32}}
	ids := []relation.ValueID{0, 1, 2, 3, 4, 5, 6}
	vals := make([]relation.Value, len(ids))
	for _, prev := range []relation.TupleID{0, 5, -7, math.MaxInt64, math.MinInt64} {
		for _, id := range []relation.TupleID{1, -1, 63, 64, -65, 1 << 20, math.MaxInt64, math.MinInt64} {
			for _, w := range [][]float64{nil, make([]float64, len(ids))} {
				st := SnapTuple{ID: id, Vals: vals, W: w, IDs: ids}
				if got, want := m.snapRowLen(len(ids), prev, &st), len(m.appendSnapRow(nil, len(ids), prev, &st)); got != want {
					t.Errorf("id %d after %d, weights %v: snapRowLen %d, encoding %d bytes", id, prev, w != nil, got, want)
				}
			}
		}
	}
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint64} {
		if got, want := relation.UvarintLen(x), len(binary.AppendUvarint(nil, x)); got != want {
			t.Errorf("UvarintLen(%d) = %d, encoding %d bytes", x, got, want)
		}
	}
}

// TestReadFrameReusesBuffer: a payload that fits the buffer handed in is
// read into it; a longer one gets a buffer of its own, with an eighth of
// its length to spare for the next record.
func TestReadFrameReusesBuffer(t *testing.T) {
	small, large := []byte("short"), []byte(strings.Repeat("long payload ", 4000))
	r := strings.NewReader(string(AppendFrame(AppendFrame(nil, small), large)))
	buf := make([]byte, 0, 64)
	p, err := readFrame(r, buf, maxPayload)
	if err != nil || string(p) != string(small) || &p[0] != &buf[:1][0] {
		t.Fatalf("short payload %q, err %v: not read into the buffer handed in", p, err)
	}
	q, err := readFrame(r, p, maxPayload)
	if err != nil || string(q) != string(large) || cap(q) < len(q)+len(q)/8 {
		t.Fatalf("long payload: %d bytes (%d to spare), err %v", len(q), cap(q)-len(q), err)
	}
}
