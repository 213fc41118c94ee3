package wal_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal-0000000000.log")
}

// TestLogRoundTrip: the record layer under the batch codec — records
// appended, reopened (OpenFrames: raw payloads), appended after the
// reopen — reads back record for record.
func TestLogRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload"), {0, 1, 2, 255}}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, discarded, err := wal.OpenFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if discarded != 0 {
		t.Fatalf("clean log reported %d discarded bytes", discarded)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], recs[i])
		}
	}
	// The reopened log must accept appends that a further open sees.
	if err := l2.Append([]byte("appended-after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _, err = wal.OpenFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)+1 || string(got[len(recs)]) != "appended-after-reopen" {
		t.Fatalf("append after reopen lost: %d records", len(got))
	}
}

// TestLogTornTail cuts a valid log at every possible byte length and
// requires: no error, only intact records recovered, damage truncated,
// and the truncated file appendable again — the crash-recovery
// contract at record granularity.
func TestLogTornTail(t *testing.T) {
	path := tmpLog(t)
	l, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("first"), []byte("second record"), []byte("3rd")}
	// boundaries[i] is the file length with exactly i intact records.
	boundaries := []int{7} // magic + version
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+8+len(r))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != boundaries[len(boundaries)-1] {
		t.Fatalf("file length %d, want %d", len(whole), boundaries[len(boundaries)-1])
	}

	intactAt := func(cut int) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				n = i
			}
		}
		return n
	}
	for cut := 7; cut <= len(whole); cut++ {
		p := filepath.Join(t.TempDir(), "cut.log")
		if err := os.WriteFile(p, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, discarded, err := wal.OpenFrames(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := intactAt(cut)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		wantDiscard := int64(cut - boundaries[want])
		if discarded != wantDiscard {
			t.Fatalf("cut %d: discarded %d bytes, want %d", cut, discarded, wantDiscard)
		}
		// After truncation the log must append cleanly.
		if err := l.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, got, _, err = wal.OpenFrames(p)
		if err != nil || len(got) != want+1 {
			t.Fatalf("cut %d: reopen after heal: %d records, err %v", cut, len(got), err)
		}
	}
}

// TestLogCorruptRecord flips one byte in each record in turn; the
// damaged record and everything after it must be discarded — record
// boundaries downstream of corruption cannot be trusted.
func TestLogCorruptRecord(t *testing.T) {
	path := tmpLog(t)
	l, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("first"), []byte("second record"), []byte("3rd")}
	offsets := []int{7}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, offsets[len(offsets)-1]+8+len(r))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, _ := os.ReadFile(path)

	for i := range recs {
		corrupted := append([]byte(nil), whole...)
		corrupted[offsets[i]+8] ^= 0x40 // first payload byte of record i
		p := filepath.Join(t.TempDir(), "corrupt.log")
		if err := os.WriteFile(p, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, discarded, err := wal.OpenFrames(p)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		l.Close()
		if len(got) != i {
			t.Fatalf("corrupt record %d: recovered %d records, want %d", i, len(got), i)
		}
		if discarded != int64(len(whole)-offsets[i]) {
			t.Fatalf("corrupt record %d: discarded %d bytes, want %d", i, discarded, len(whole)-offsets[i])
		}
	}
}

func TestLogBadHeader(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"empty.log":   {},
		"short.log":   []byte("CFD"),
		"magic.log":   []byte("NOTWAL\x01rest"),
		"version.log": append([]byte("CFDWAL"), 99),
		"snapmag.log": append([]byte("CFDSNAP"), 1),
		"garbage.log": []byte("garbage everywhere, no structure"),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := wal.Open(p); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func sampleSnapshot() *wal.Snapshot {
	return &wal.Snapshot{
		Name:     "tenant-7",
		Relname:  "order",
		Attrs:    []string{"id", "name", "CT"},
		CFDs:     "cfd phi1: [id] -> [CT]\n(_ || _)\n",
		Ordering: 1,
		K:        2,
		NearestK: 4,
		Batches:  11,
		Inserted: 42,
		Deleted:  5,
		Changes:  17,
		Cost:     3.25,
		NextID:   77,
		Version:  191,
		Quota:    wal.Quota{OpsPerSec: 2.5, MaxSubscribers: 3},
		Tuples: []wal.SnapTuple{
			{ID: 3, Vals: []relation.Value{relation.S("a23"), relation.NullValue, relation.S("NYC")}},
			{ID: 1, Vals: []relation.Value{relation.S(""), relation.S("quote'y,va|l"), relation.NullValue},
				W: []float64{1, 0.25, 0.5}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	var buf bytes.Buffer
	if err := wal.WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := readByChunks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", got, s)
	}
}

// TestSnapshotFileAtomicity: the file helper round-trips, rejects torn
// and bit-flipped images with ErrCorrupt, and never leaves a .tmp
// behind on success.
func TestSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "snap-0000000000.snap")
	s := sampleSnapshot()
	if err := wal.WriteSnapshotFile(p, s); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("snapshot write left %d entries (tmp not cleaned?)", len(ents))
	}
	whole, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readByChunks(whole); err != nil || !reflect.DeepEqual(s, got) {
		t.Fatalf("snapshot file round trip mismatch (err %v)", err)
	}

	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 1
			return c
		}},
		{"trailing", func(b []byte) []byte { return append(append([]byte(nil), b...), 'x') }},
	} {
		if _, err := readByChunks(tc.mut(whole)); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestSnapshotTruncationSafety reads every strict prefix and every
// single-byte flip of a snapshot stream — what a follower receives — and
// each must be refused with ErrCorrupt rather than yield a snapshot.
func TestSnapshotTruncationSafety(t *testing.T) {
	var buf bytes.Buffer
	if err := wal.WriteSnapshot(&buf, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	for cut := 0; cut < len(stream); cut++ {
		if _, err := readByChunks(stream[:cut]); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrCorrupt", cut, len(stream), err)
		}
	}
	for off := range stream {
		mut := append([]byte(nil), stream...)
		mut[off] ^= 0xff
		if _, err := readByChunks(mut); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("byte %d flipped: err = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestBatchRoundTrip fuzzes the batch codec: random op mixes must
// round-trip exactly, and every strict prefix of the encoding must fail
// to decode rather than mis-decode.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := func(n int) []relation.Value {
		out := make([]relation.Value, n)
		for i := range out {
			switch rng.Intn(3) {
			case 0:
				out[i] = relation.NullValue
			case 1:
				out[i] = relation.S("")
			default:
				out[i] = relation.S(string(rune('a' + rng.Intn(26))))
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		b := &wal.Batch{PrevVersion: rng.Uint64(), Version: rng.Uint64()}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				b.Ops = append(b.Ops, relation.Delta{Kind: relation.DeltaDelete,
					T: &relation.Tuple{ID: relation.TupleID(rng.Intn(100) + 1)}})
			case 1:
				b.Ops = append(b.Ops, relation.Delta{Kind: relation.DeltaUpdate,
					T:    &relation.Tuple{ID: relation.TupleID(rng.Intn(100) + 1)},
					Attr: rng.Intn(5), Old: vals(1)[0]})
			default:
				tp := &relation.Tuple{ID: relation.TupleID(rng.Intn(3)), Vals: vals(1 + rng.Intn(4))}
				if rng.Intn(2) == 0 {
					tp.W = make([]float64, len(tp.Vals))
					for j := range tp.W {
						tp.W[j] = rng.Float64()
					}
				}
				b.Ops = append(b.Ops, relation.Delta{Kind: relation.DeltaInsert, T: tp})
			}
		}
		enc := b.Encode()
		got, err := wal.DecodeBatch(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.PrevVersion != b.PrevVersion || got.Version != b.Version || len(got.Ops) != len(b.Ops) {
			t.Fatalf("trial %d: header mismatch", trial)
		}
		for i := range b.Ops {
			w, g := b.Ops[i], got.Ops[i]
			if w.Kind != g.Kind || w.Attr != g.Attr || w.T.ID != g.T.ID ||
				!relation.StrictEq(w.Old, g.Old) ||
				!relation.StrictEqVals(w.T.Vals, g.T.Vals) ||
				!reflect.DeepEqual(w.T.W, g.T.W) {
				t.Fatalf("trial %d op %d: %+v != %+v", trial, i, w, g)
			}
		}
		if cut := rng.Intn(len(enc)); cut < len(enc) {
			if _, err := wal.DecodeBatch(enc[:cut]); err == nil {
				t.Fatalf("trial %d: truncated batch at %d decoded", trial, cut)
			}
		}
	}
}
