package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"slices"
	"testing"

	"cfdclean/internal/relation"
)

// goldenRecords returns the records (header stripped) of the two golden
// fixture files, and the payloads of the WAL's.
func goldenRecords(f *testing.F) (streams, payloads [][]byte) {
	f.Helper()
	for _, fx := range []struct{ file, magic string }{{"wal.log", walMagic}, {"snapshot.snap", snapMagic}} {
		b, err := os.ReadFile("../../testdata/golden/wal-session/" + fx.file)
		if err != nil {
			f.Fatal(err)
		}
		r := bytes.NewReader(b)
		if err := CheckHeader(r, fx.magic, Version); err != nil {
			f.Fatal(err)
		}
		stream := b[len(b)-r.Len():]
		streams = append(streams, stream)
		if fx.magic == walMagic {
			payloads, _ = scanFrames(bytes.NewReader(stream))
		}
	}
	return streams, payloads
}

// FuzzReadFrame holds the one record reader — every byte that arrives
// from a disk or a peer goes through it — to its contract on arbitrary
// input: it never panics, never returns more than max bytes, a payload it
// returns re-frames to exactly the bytes it consumed, and a WAL scan of
// good-prefix ‖ garbage finds the same prefix when run again on what the
// first run kept (recovery's truncate-and-continue is idempotent).
func FuzzReadFrame(f *testing.F) {
	streams, payloads := goldenRecords(f)
	for _, s := range streams {
		f.Add(s, uint32(maxPayload))
	}
	// The record of a shipped batch frame (behind its kind byte) and a
	// store manifest's (behind its header).
	f.Add(AppendFrame(nil, payloads[0]), uint32(1<<28))
	manifest := []byte{3, 0x80, 0x80, 1, 12, 0xac, 2, 1, 0, 0, 8}
	f.Add(AppendFrame(nil, manifest), uint32(len(manifest)))
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<28), uint32(1<<28)) // a length with nothing behind it
	f.Fuzz(func(t *testing.T, b []byte, max uint32) {
		r := bytes.NewReader(b)
		for {
			before := r.Len()
			p, err := ReadFrame(r, int(max))
			if err != nil {
				if err == io.EOF && before != 0 {
					t.Fatalf("io.EOF with %d bytes unread", before)
				}
				break
			}
			if len(p) > int(max) {
				t.Fatalf("payload of %d bytes under max %d", len(p), max)
			}
			if consumed := b[len(b)-before : len(b)-r.Len()]; !bytes.Equal(AppendFrame(nil, p), consumed) {
				t.Fatalf("payload re-frames to other bytes than the %d consumed", len(consumed))
			}
		}
		first, good := scanFrames(bytes.NewReader(b))
		again, goodAgain := scanFrames(bytes.NewReader(b[:good]))
		if good != goodAgain || len(first) != len(again) {
			t.Fatalf("scan kept %d records in %d bytes, rescan of those bytes %d in %d", len(first), good, len(again), goodAgain)
		}
		for i := range first {
			if !bytes.Equal(first[i], again[i]) {
				t.Fatalf("record %d differs between scan and rescan", i)
			}
		}
	})
}

// FuzzDecodeBatch: the batch decoder never panics, and whatever it
// accepts is canonical after one re-encoding — Encode of the decoded
// batch decodes again and encodes to the same bytes. Bytes are compared,
// not structs: a weight may be NaN.
func FuzzDecodeBatch(f *testing.F) {
	_, payloads := goldenRecords(f)
	for _, p := range payloads {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := DecodeBatch(p)
		if err != nil {
			return
		}
		enc := b.Encode()
		b2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if enc2 := b2.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzDecodeRow holds the one row form — a snapshot chunk's rows and a
// page's — to its contract: DecodeRow never panics, never returns id 0,
// and n rows it accepts to the last byte re-encode through AppendRow,
// every cell as written, to the same bytes: the form has one encoding.
// The seeds: an unweighted and a weighted arity-3 row, then changes of
// the first that the reader refuses — an overlong varint, weight flag 2,
// a delta reaching 0, a cell past every value id, a byte behind the row,
// a row cut short.
func FuzzDecodeRow(f *testing.F) {
	row := []byte{2, 1, 2, 3, 0}
	weighted := append([]byte{4, 1, 0, 4, 1}, make([]byte, 24)...)
	f.Add(uint8(3), uint8(1), row)
	f.Add(uint8(3), uint8(2), append(slices.Clone(row), weighted...))
	f.Add(uint8(3), uint8(1), []byte{0x82, 0, 1, 2, 3, 0})
	f.Add(uint8(3), uint8(1), []byte{2, 1, 2, 3, 2})
	f.Add(uint8(3), uint8(1), []byte{0, 1, 2, 3, 0})
	f.Add(uint8(3), uint8(1), []byte{2, 1, 2, 0x80, 0x80, 0x80, 0x80, 0x10, 0})
	f.Add(uint8(3), uint8(1), append(slices.Clone(row), 0))
	f.Add(uint8(3), uint8(1), row[:3])
	f.Fuzz(func(t *testing.T, arity, n uint8, b []byte) {
		arity %= 16
		d := relation.NewDecoder(b, ErrCorrupt)
		rows := make([]SnapTuple, 0, n)
		var prev relation.TupleID
		for range n {
			r := DecodeRow(d, int(arity), prev)
			if d.Err() != nil {
				return
			}
			if r.ID == 0 {
				t.Fatal("accepted tuple id 0")
			}
			rows, prev = append(rows, r), r.ID
		}
		if d.Done() != nil {
			return
		}
		var enc []byte
		prev = 0
		for i := range rows {
			enc, prev = AppendRow(enc, prev, &rows[i], nil), rows[i].ID
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("%d rows re-encode to other bytes:\n%x\n%x", n, enc, b)
		}
	})
}
