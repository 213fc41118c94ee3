package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"cfdclean/internal/relation"
)

// ReadSnapshotWhole is readSnapshotWhole, for the fuzz target in the
// external test package.
var ReadSnapshotWhole = readSnapshotWhole

// readSnapshotWhole is the snapshot reader as it was before rows were
// read one chunk at a time: every chunk record read with ReadFrame into a
// buffer of its own and decoded in full before the next one is read.
// FuzzDecodeSnapshot holds SnapshotReader to it — the same rows and the
// same refusals, word for word.
func readSnapshotWhole(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := CheckHeader(br, snapMagic, Version); err != nil {
		return nil, err
	}
	p, err := ExpectFrame(br, maxPayload)
	if err != nil {
		return nil, err
	}
	d := relation.NewDecoder(p, ErrCorrupt)
	s, ntuples := decodeSnapshotPrefix(d)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("snapshot header record: %w", err)
	}
	arity := len(s.Attrs)
	for got := uint64(0); got < ntuples; {
		p, err := ExpectFrame(br, maxPayload)
		if err != nil {
			return nil, err
		}
		d := relation.NewDecoder(p, ErrCorrupt)
		n := d.Uvarint("chunk tuple count")
		if n == 0 || got+n > ntuples {
			d.Failf("chunk of %d tuples at row %d of %d", n, got, ntuples)
		}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			s.Tuples = append(s.Tuples, decodeSnapTuple(d, arity))
		}
		if err := d.Done(); err != nil {
			return nil, fmt.Errorf("snapshot chunk at row %d: %w", got, err)
		}
		got += n
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: snapshot stream trailed by garbage", ErrCorrupt)
	}
	return s, nil
}

// TestSnapTupleLen: the writer sizes each chunk buffer by snapTupleLen
// before it encodes the chunk, so the length must be the encoding's —
// ids of every varint width and sign, nulls, empty and long constants,
// weights on and off.
func TestSnapTupleLen(t *testing.T) {
	long := relation.S(strings.Repeat("x", 300))
	for _, id := range []relation.TupleID{1, -1, 63, 64, -65, 1 << 20, math.MaxInt64, math.MinInt64} {
		for _, w := range [][]float64{nil, {0, 0.5, 1}} {
			st := SnapTuple{ID: id, Vals: []relation.Value{relation.NullValue, relation.S(""), long}, W: w}
			if got, want := snapTupleLen(3, &st), len(appendSnapTuple(nil, 3, &st)); got != want {
				t.Errorf("id %d, weights %v: snapTupleLen %d, encoding %d bytes", id, w != nil, got, want)
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
