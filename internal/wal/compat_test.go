package wal_test

// Format versions: this build writes and reads snapshot streams of
// version 5 and WAL files of version 6 only. A data directory written by
// any other version — older or from the future — is refused loudly, by
// the snapshot stream's reader and the WAL's, with an error that wraps
// ErrVersion (and so ErrCorrupt) and names the version found and the one
// supported. The
// files themselves are otherwise intact current-format files with only
// the header's version byte changed, so the version check is the one
// thing that can refuse them.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// otherVersions is the refusal table: snapshot format versions no stream
// this build reads may carry — older ones and one from the future — and
// otherWALVersions the WAL's.
var (
	otherVersions    = []byte{1, 2, 3, 4, 99}
	otherWALVersions = []byte{1, 2, 3, 4, 5, 99}
)

func TestOtherFormatVersionsAreRefused(t *testing.T) {
	rec := record(t, 77, increpair.Linear, 3, true)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal-0000000000.log")
	writeLog(t, walPath, rec.batches)
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Unmodified, both files read back: what is refused below is the
	// version byte and nothing else.
	if _, err := readByChunks(rec.snap0); err != nil {
		t.Fatalf("current-version snapshot: %v", err)
	}
	if _, batches, _, err := wal.Open(walPath); err != nil || len(batches) != len(rec.batches) {
		t.Fatalf("current-version wal: %d records, err %v", len(batches), err)
	}

	check := func(t *testing.T, kind string, ver, want byte, err error) {
		t.Helper()
		if !errors.Is(err, wal.ErrVersion) || !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s stamped version %d: got %v, want ErrVersion", kind, ver, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("format version %d", ver)) ||
			!strings.Contains(msg, fmt.Sprintf("only version %d", want)) {
			t.Fatalf("%s refusal does not name the versions: %v", kind, err)
		}
	}
	for _, ver := range otherVersions {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			snap := append([]byte(nil), rec.snap0...)
			snap[len("CFDSNAP")] = ver
			_, _, err := wal.NewSnapshotReader(bytes.NewReader(snap))
			check(t, "snapshot", ver, wal.Version, err)
		})
	}
	for _, ver := range otherWALVersions {
		t.Run(fmt.Sprintf("wal-v%d", ver), func(t *testing.T) {
			log := append([]byte(nil), walBytes...)
			log[len("CFDWAL")] = ver
			logPath := filepath.Join(t.TempDir(), "wal-0000000000.log")
			if err := os.WriteFile(logPath, log, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err := wal.Open(logPath)
			check(t, "wal", ver, wal.WALVersion, err)
			if after, _ := os.ReadFile(logPath); !bytes.Equal(after, log) {
				t.Fatal("the refused WAL was changed")
			}
		})
	}
}

// FuzzDecodeSnapshot holds the snapshot reader to its contract: the
// fuzzer writes a file's version byte, its header record and up to two
// chunk records, and the test frames them with valid checksums, so the
// bytes reach the decoders rather than dying at the CRC. Nothing panics;
// a file cut at a record boundary is refused whenever the whole one is
// accepted; and whatever the reader accepts is canonical — WriteSnapshot
// of what it read writes the file byte for byte: the reader reads every
// header byte back as a field, and the chunk records have one form.
func FuzzDecodeSnapshot(f *testing.F) {
	rec := record(f, 77, increpair.Linear, 3, true)
	r := bytes.NewReader(rec.snap0[len("CFDSNAP")+1:])
	prefix, err := wal.ReadFrame(r, 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := wal.ReadFrame(r, 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	for _, ver := range append([]byte{wal.Version}, otherVersions...) {
		f.Add(ver, prefix, chunk, []byte(nil))
	}
	// An empty relation's file is its header record alone.
	header, _ := snapshotRecords(f, &wal.Snapshot{Name: "empty", Relname: "r", Attrs: []string{"a", "b"}})
	f.Add(byte(wal.Version), header, []byte(nil), []byte(nil))
	// Rows out of id order holding "", null, a constant that is not
	// UTF-8, and weights, one of them NaN.
	header, chunks := snapshotRecords(f, mixedSnapshot(3))
	f.Add(byte(wal.Version), header, chunks[0], []byte(nil))
	// Two chunks, the second using a constant of the first and one of its
	// own.
	header, chunks = snapshotRecords(f, mixedSnapshot(4097))
	f.Add(byte(wal.Version), header, chunks[0], chunks[1])
	// Every refusal of TestSnapshotRefusesNonCanonicalChunks.
	for _, c := range nonCanonical(f) {
		f.Add(byte(wal.Version), c.header, c.chunk, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, ver byte, prefix, chunk1, chunk2 []byte) {
		file := wal.AppendFrame(wal.AppendHeader(nil, "CFDSNAP", ver), prefix)
		headerEnd := len(file)
		cuts := []int{len("CFDSNAP") + 1, len(file)}
		for _, c := range [][]byte{chunk1, chunk2} {
			if len(c) > 0 {
				file = wal.AppendFrame(file, c)
				cuts = append(cuts, len(file))
			}
		}
		s, err := readByChunks(file)
		for _, cut := range cuts[:len(cuts)-1] {
			if _, cerr := readByChunks(file[:cut]); err == nil && cerr == nil {
				t.Fatalf("the file is accepted, and so is its first %d of %d bytes", cut, len(file))
			}
		}
		if err != nil {
			return
		}
		var rewritten []byte
		_, chunks := snapshotRecords(t, s)
		for _, c := range chunks {
			rewritten = wal.AppendFrame(rewritten, c)
		}
		if !bytes.Equal(rewritten, file[headerEnd:]) {
			t.Fatalf("the chunk records re-encode to other bytes:\n%x\n%x", rewritten, file[headerEnd:])
		}
		if w := encodeSnapshot(t, s); !bytes.Equal(w, file) {
			t.Fatalf("the file re-encodes to other bytes:\n%x\n%x", w, file)
		}
	})
}

// mixedSnapshot returns a snapshot of n rows over three attributes whose
// ids step up and down, holding nulls, "", a constant that is not UTF-8
// and rows with and without weights (one of them NaN); its constants
// repeat with a period of 97 rows, and row 4 096 (the second chunk's
// first) brings one of its own.
func mixedSnapshot(n int) *wal.Snapshot {
	s := &wal.Snapshot{Name: "mixed", Relname: "r", Attrs: []string{"a", "b", "c"}, NextID: relation.TupleID(2*n + 1)}
	alphabet := []relation.Value{relation.NullValue, relation.S(""), relation.S("\xff\xfeq"), relation.S("x")}
	for i := 0; i < n; i++ {
		id := relation.TupleID(2*i + 1)
		if i%2 == 1 {
			id = relation.TupleID(2*i - 1 + 2*n)
		}
		t := wal.SnapTuple{ID: id, Vals: []relation.Value{
			alphabet[i%len(alphabet)],
			relation.S(strconv.Itoa(i % 97)),
			alphabet[(i/3)%len(alphabet)],
		}}
		if i == 4096 {
			t.Vals[1] = relation.S("second chunk")
		}
		switch i % 3 {
		case 1:
			t.W = []float64{0, 0.5, 1}
		case 2:
			t.W = []float64{math.NaN(), 0.25, 1}
		}
		s.Tuples = append(s.Tuples, t)
	}
	return s
}

// refusal is one non-canonical or damaged snapshot file: a header record
// and one chunk record, and the words its refusal must hold.
type refusal struct {
	name          string
	header, chunk []byte
	says          string
}

// nonCanonical returns one refusal for every way a chunk record can
// break the image's canonical form. Each is a copy of an accepted
// one-row file (the "accepted" case's rows) with one thing changed.
func nonCanonical(tb testing.TB) []refusal {
	tb.Helper()
	s := &wal.Snapshot{Name: "c", Relname: "r", Attrs: []string{"a", "b"}}
	header := func(rows int) []byte {
		s.Tuples = make([]wal.SnapTuple, rows)
		for i := range s.Tuples {
			s.Tuples[i] = wal.SnapTuple{ID: relation.TupleID(i + 1), Vals: make([]relation.Value, 2)}
		}
		h, _ := snapshotRecords(tb, s)
		return h
	}
	one := header(1)
	// chunk assembles a one-row chunk record: its strings, then the row's
	// id delta and cells, and no weights.
	chunk := func(strs []string, row ...byte) []byte {
		c := binary.AppendUvarint([]byte{1}, uint64(len(strs)))
		for _, str := range strs {
			c = append(binary.AppendUvarint(c, uint64(len(str))), str...)
		}
		return append(append(c, row...), 0)
	}
	return []refusal{
		{"accepted", one, chunk([]string{"a", "b"}, 2, 1, 2), ""},
		{"cell past the entries read so far", one, chunk([]string{"a"}, 2, 1, 2), "past the 1 read so far"},
		{"a string twice", one, chunk([]string{"a", "a"}, 2, 1, 2), "repeats an earlier entry"},
		{"a string no row of its chunk uses", one, chunk([]string{"a", "b"}, 2, 1, 0), "used by no row"},
		{"tuple id 0", one, chunk(nil, 0, 0, 0), "tuple id 0"},
		{"strings numbered out of first-use order", one, chunk([]string{"a", "b"}, 2, 2, 1), "before entry 0 is first used"},
		{"an overlong varint", one, chunk([]string{"a", "b"}, 0x82, 0, 1, 2), "overlong varint"},
		{"a short chunk before the last", header(snapChunkRows + 1), chunk(nil, 2, 0, 0), "chunk of 1 tuples at row 0 of 4097"},
	}
}

// snapChunkRows is the rows of every chunk record but the last.
const snapChunkRows = 4096

// TestSnapshotRefusesNonCanonicalChunks: the reader accepts a chunk in
// the image's one canonical form and refuses, wrapping ErrCorrupt and
// naming what it found, each way of breaking it: a cell naming a string
// not yet read, a string written twice, a string its chunk does not use,
// strings numbered out of first-use order, tuple id 0, an overlong
// varint, and a chunk short of 4 096 rows that is not the last.
func TestSnapshotRefusesNonCanonicalChunks(t *testing.T) {
	for _, c := range nonCanonical(t) {
		t.Run(c.name, func(t *testing.T) {
			file := wal.AppendFrame(wal.AppendFrame(wal.AppendHeader(nil, "CFDSNAP", wal.Version), c.header), c.chunk)
			_, err := readByChunks(file)
			switch {
			case c.says == "" && err != nil:
				t.Fatalf("the canonical file is refused: %v", err)
			case c.says != "" && (!errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), c.says)):
				t.Fatalf("got %v, want ErrCorrupt saying %q", err, c.says)
			}
		})
	}
}

// FuzzSnapshotRoundTrip: rows of arity 1–4 over a tiny alphabet — null,
// "", a constant that is not UTF-8 — with and without weights, written
// by WriteSnapshotRows under the ids of a dictionary that also holds
// constants no row uses, come back from SnapshotReader as the same rows:
// ids, values and weight bits. Each row's IDs name its values in the
// reader's dictionary, which holds exactly the constants the rows use.
// The fuzzer's rows are repeated up to 64 times, so they cross chunk
// boundaries.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{1, 0, 1, 0, 2, 1, 3, 2, 0xff, 4, 2})
	f.Add(uint8(3), uint8(63), []byte{1, 1, 2, 3, 4, 5, 0xfe, 0, 0, 0, 1, 0x81, 6, 5, 4, 3, 2})
	f.Fuzz(func(t *testing.T, arity, repeat uint8, b []byte) {
		alphabet := []relation.Value{relation.NullValue, relation.S(""), relation.S("\xff\xfe"), relation.S("a"), relation.S("a\x00"), relation.S("ab")}
		s := &wal.Snapshot{Relname: "r", Attrs: []string{"a", "b", "c", "d"}[:1+arity%4]}
		n := len(s.Attrs)
		// Each row takes an id step, a byte per cell and a weight byte:
		// odd for weights, 0xff for a NaN among them.
		var pattern []wal.SnapTuple
		for ; len(b) >= n+2; b = b[n+2:] {
			t := wal.SnapTuple{ID: relation.TupleID(int8(b[0])), Vals: make([]relation.Value, n)}
			for a := range t.Vals {
				t.Vals[a] = alphabet[int(b[1+a])%len(alphabet)]
			}
			if w := b[n+1]; w%2 == 1 {
				t.W = make([]float64, n)
				for a := range t.W {
					t.W[a] = float64(w) / float64(a+256)
				}
				if w == 0xff {
					t.W[0] = math.NaN()
				}
			}
			pattern = append(pattern, t)
		}
		var rows []wal.SnapTuple
		var id relation.TupleID
		for r := 0; r <= int(repeat)%64 && len(rows)+len(pattern) <= 3*snapChunkRows; r++ {
			for _, t := range pattern {
				if id += t.ID; id == 0 {
					id = -1
				}
				t.ID = id
				rows = append(rows, t)
			}
		}
		dict := relation.NewDict()
		dict.InternStr("dead")
		for a := len(alphabet) - 1; a > 0; a-- {
			dict.Intern(alphabet[a])
		}
		ids := make([]relation.ValueID, n)
		var img bytes.Buffer
		if err := wal.WriteSnapshotRows(&img, s, len(rows), dict.Len()+1, func(i int) wal.SnapTuple {
			t := rows[i]
			for a, v := range t.Vals {
				ids[a] = dict.LookupValue(v)
			}
			t.IDs = ids
			return t
		}); err != nil {
			t.Fatal(err)
		}
		_, rd, err := wal.NewSnapshotReader(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		used := map[string]bool{}
		for i := 0; ; i++ {
			got, ok, err := rd.Next()
			if err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			if !ok {
				if i != len(rows) {
					t.Fatalf("%d rows back of %d", i, len(rows))
				}
				break
			}
			want := rows[i]
			if got.ID != want.ID || !relation.StrictEqVals(got.Vals, want.Vals) || !sameBits(got.W, want.W) {
				t.Fatalf("row %d: got %v %v %v, want %v %v %v", i, got.ID, got.Vals, got.W, want.ID, want.Vals, want.W)
			}
			for a, v := range got.Vals {
				if !relation.StrictEq(rd.Dict().Value(got.IDs[a]), v) {
					t.Fatalf("row %d holds %v under id %d, which names %v", i, v, got.IDs[a], rd.Dict().Value(got.IDs[a]))
				}
				if !v.Null {
					used[v.Str] = true
				}
			}
		}
		if rd.Dict().Len() != len(used) {
			t.Fatalf("the image holds %d constants, its rows use %d", rd.Dict().Len(), len(used))
		}
	})
}

// sameBits reports whether two weight vectors are both absent or hold the
// same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// snapshotRecords returns the payloads of s's snapshot stream: its
// header record and its chunk records.
func snapshotRecords(tb testing.TB, s *wal.Snapshot) (header []byte, chunks [][]byte) {
	tb.Helper()
	var b bytes.Buffer
	if err := wal.WriteSnapshot(&b, s); err != nil {
		tb.Fatal(err)
	}
	r := bytes.NewReader(b.Bytes()[len("CFDSNAP")+1:])
	header, err := wal.ReadFrame(r, 1<<30)
	for err == nil {
		var c []byte
		if c, err = wal.ReadFrame(r, 1<<30); err == nil {
			chunks = append(chunks, c)
		}
	}
	if err != io.EOF {
		tb.Fatal(err)
	}
	return header, chunks
}

// readByChunks reads b through SnapshotReader, row by row, into one
// Snapshot: the whole-stream read the tests of this package compare. It
// checks that each row's IDs name its values in the reader's dictionary
// and drops them, so that the snapshot is the one a writer is handed.
func readByChunks(b []byte) (*wal.Snapshot, error) {
	s, rows, err := wal.NewSnapshotReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	for {
		t, ok, err := rows.Next()
		if err != nil {
			if _, _, again := rows.Next(); again != err {
				return nil, fmt.Errorf("Next after %v returned %v", err, again)
			}
			return nil, err
		}
		if !ok {
			return s, nil
		}
		for a, v := range t.Vals {
			if id := t.IDs[a]; !relation.StrictEq(rows.Dict().Value(id), v) {
				return nil, fmt.Errorf("row %d: %v under id %d, which names %v", len(s.Tuples), v, id, rows.Dict().Value(id))
			}
		}
		t.IDs = nil
		s.Tuples = append(s.Tuples, t)
	}
}

func encodeSnapshot(t testing.TB, s *wal.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wal.WriteSnapshot(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
