package wal

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"cfdclean/internal/relation"
)

// TestSnapTupleLen: the writer sizes each chunk buffer by rowLen before
// it encodes the chunk, so the length must be AppendRow's — tuple-id
// deltas of every varint width and sign, nulls, cells of one to five
// bytes, whether an image's entries (cells) or the ids themselves (nil),
// weights on and off.
func TestSnapTupleLen(t *testing.T) {
	img := []uint32{0, 1, 127, 128, 1<<14 - 1, 1 << 14, math.MaxUint32}
	for _, c := range []struct {
		cells []uint32
		ids   []relation.ValueID
	}{
		{img, []relation.ValueID{0, 1, 2, 3, 4, 5, 6}},
		{nil, []relation.ValueID{0, 1, 127, 128, 1 << 14, 1 << 28, math.MaxUint32}},
	} {
		vals := make([]relation.Value, len(c.ids))
		for _, prev := range []relation.TupleID{0, 5, -7, math.MaxInt64, math.MinInt64} {
			for _, id := range []relation.TupleID{1, -1, 63, 64, -65, 1 << 20, math.MaxInt64, math.MinInt64} {
				for _, w := range [][]float64{nil, make([]float64, len(c.ids))} {
					st := SnapTuple{ID: id, Vals: vals, W: w, IDs: c.ids}
					if got, want := rowLen(prev, &st, c.cells), len(AppendRow(nil, prev, &st, c.cells)); got != want {
						t.Errorf("id %d after %d, image %v, weights %v: rowLen %d, encoding %d bytes", id, prev, c.cells != nil, w != nil, got, want)
					}
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
