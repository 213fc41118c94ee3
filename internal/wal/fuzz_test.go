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
	for _, fx := range []struct {
		file, magic string
		version     byte
	}{{"wal.log", walMagic, WALVersion}, {"snapshot.snap", snapMagic, Version}} {
		b, err := os.ReadFile("../../testdata/golden/wal-session/" + fx.file)
		if err != nil {
			f.Fatal(err)
		}
		r := bytes.NewReader(b)
		if err := CheckHeader(r, fx.magic, fx.version); err != nil {
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
	// The record of a shipped batch frame (behind its kind byte): the
	// golden WAL's first record, which a fresh WAL's table makes the
	// batch's frame payload; and a store manifest's (behind its header).
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

// FuzzDecodeBatch holds the batch reader to its contract in a shipped
// frame's scope, where a record's string table is its own: it never
// panics, and whatever it accepts is canonical — Encode of the decoded
// batch is the payload, byte for byte. Bytes are compared, not structs:
// a weight may be NaN. The seeds: the golden WAL's batches as frames,
// then every refusal of TestBatchRejectsGarbage.
func FuzzDecodeBatch(f *testing.F) {
	_, payloads := goldenRecords(f)
	var tab strTable
	for _, p := range payloads {
		b, err := decodeBatch(p, &tab)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b.Encode())
	}
	for _, c := range nonCanonicalBatches(f) {
		f.Add(c.batch)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := DecodeBatch(p)
		if err != nil {
			return
		}
		if enc := b.Encode(); !bytes.Equal(enc, p) {
			t.Fatalf("an accepted frame re-encodes to other bytes:\n%x\n%x", p, enc)
		}
	})
}

// FuzzDecodeWALRecords holds it to the same contract in a WAL file's
// scope, where the table grows record by record: the records of a file
// (up to three here) that decode in order through one table re-encode,
// record by record through a fresh writer's table, to the same bytes,
// and a refused record leaves the table as it was. The seeds: the golden
// WAL's first three records, in order and with the second spliced out,
// and each refusal of TestBatchRejectsGarbage behind the record its scope
// holds.
func FuzzDecodeWALRecords(f *testing.F) {
	_, payloads := goldenRecords(f)
	f.Add(payloads[0], payloads[1], payloads[2])
	f.Add(payloads[0], payloads[2], payloads[1]) // record 1 spliced out
	for _, c := range nonCanonicalBatches(f) {
		if c.before == nil {
			f.Add(c.batch, []byte(nil), []byte(nil))
		} else {
			f.Add(c.before, c.batch, []byte(nil))
		}
	}
	f.Fuzz(func(t *testing.T, p0, p1, p2 []byte) {
		var read, written strTable
		for i, p := range [][]byte{p0, p1, p2} {
			entries := len(read.strs)
			b, err := decodeBatch(p, &read)
			if err != nil {
				if len(read.strs) != entries || len(read.ids) != entries {
					t.Fatalf("refused record %d left %d entries, had %d", i, len(read.strs), entries)
				}
				return
			}
			if enc := encodeBatch(b, &written); !bytes.Equal(enc, p) {
				t.Fatalf("accepted record %d re-encodes to other bytes:\n%x\n%x", i, p, enc)
			}
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
