package wal

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cfdclean/internal/relation"
)

// scopeBatches are three batches of one session, the later ones using
// strings the earlier ones were the first to use: in a WAL file, record 1
// and 2 declare only "x" and "new" and name the rest by record 0's
// entries.
func scopeBatches() []*Batch {
	weighted := relation.NewTuple(0, "a", "x", "c")
	weighted.SetWeight(1, 0.5)
	return []*Batch{
		{PrevVersion: 1, Version: 2, Ops: []relation.Delta{
			{Kind: relation.DeltaInsert, T: relation.NewTuple(0, "a", "b", "c")},
			{Kind: relation.DeltaInsert, T: &relation.Tuple{Vals: []relation.Value{relation.S("c"), relation.NullValue, relation.S("a")}}},
		}},
		{PrevVersion: 2, Version: 4, Ops: []relation.Delta{
			{Kind: relation.DeltaUpdate, T: &relation.Tuple{ID: 1}, Attr: 2, Old: relation.S("b")},
			{Kind: relation.DeltaInsert, T: weighted},
		}},
		{PrevVersion: 4, Version: 7, Ops: []relation.Delta{
			{Kind: relation.DeltaDelete, T: &relation.Tuple{ID: 2}},
			{Kind: relation.DeltaUpdate, T: &relation.Tuple{ID: 1}, Attr: 0, Old: relation.NullValue},
			{Kind: relation.DeltaInsert, T: relation.NewTuple(0, "x", "b", "new")},
		}},
	}
}

// scopeRecords encodes batches as one WAL file's records, through one
// table.
func scopeRecords(batches []*Batch) [][]byte {
	var tab strTable
	out := make([][]byte, len(batches))
	for i, b := range batches {
		out[i] = encodeBatch(b, &tab)
	}
	return out
}

// declared returns the strings a record lists before its ops.
func declared(t *testing.T, p []byte) []string {
	t.Helper()
	d := relation.NewDecoder(p, ErrCorrupt)
	d.U64("prev")
	d.U64("version")
	out := []string{}
	for n := d.Uvarint("count"); n > 0; n-- {
		out = append(out, d.Str("string"))
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	return out
}

// TestFreshWALRecordIsTheFrame: a batch's first record in a fresh WAL is
// Encode's bytes, and a later record declares only the strings no earlier
// record of the file did — the frame of the same batch declares all of
// its own.
func TestFreshWALRecordIsTheFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bs := scopeBatches()
	for _, b := range bs {
		if _, err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, payloads, _, err := openFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payloads[0], bs[0].Encode()) {
		t.Fatal("the first record of a fresh WAL is not the batch's frame")
	}
	// An insert's and a delete's old cell is the zero Value, "".
	for i, want := range [][]string{{"a", "b", "c", ""}, {"x"}, {"new"}} {
		if got := declared(t, payloads[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("record %d declares %q, want %q", i, got, want)
		}
	}
	if got := declared(t, bs[2].Encode()); !reflect.DeepEqual(got, []string{"", "x", "b", "new"}) {
		t.Errorf("the frame of batch 2 declares %q", got)
	}
}

// TestBatchOpsRoundTrip: every op kind, null, "" and arbitrary bytes as
// values, weight vectors (bit-exact floats) — a batch round-trips through
// its frame and through a WAL file's records, decodes to free-standing
// tuples (no interned ids, OldID InvalidID), and no strict prefix of a
// record decodes.
func TestBatchOpsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randVal := func() relation.Value {
		switch rng.Intn(4) {
		case 0:
			return relation.NullValue
		case 1:
			return relation.S("")
		case 2:
			return relation.S("plain")
		default:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			return relation.S(string(b))
		}
	}
	randBatch := func() *Batch {
		b := &Batch{PrevVersion: rng.Uint64(), Version: rng.Uint64()}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			tp := &relation.Tuple{ID: relation.TupleID(rng.Int63n(1<<40) - 1<<39)}
			for j, m := 0, rng.Intn(6); j < m; j++ {
				tp.Vals = append(tp.Vals, randVal())
			}
			if tp.Vals != nil && rng.Intn(2) == 0 {
				tp.W = make([]float64, len(tp.Vals))
				for j := range tp.W {
					tp.W[j] = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // finite
				}
			}
			b.Ops = append(b.Ops, relation.Delta{Kind: relation.DeltaKind(rng.Intn(3)), T: tp, Attr: rng.Intn(8), Old: randVal()})
		}
		return b
	}
	same := func(want, got *Batch) bool {
		if got.PrevVersion != want.PrevVersion || got.Version != want.Version || len(got.Ops) != len(want.Ops) {
			return false
		}
		for i, w := range want.Ops {
			g := got.Ops[i]
			if g.Kind != w.Kind || g.Attr != w.Attr || g.T.ID != w.T.ID || !relation.StrictEq(g.Old, w.Old) ||
				!relation.StrictEqVals(g.T.Vals, w.T.Vals) || !reflect.DeepEqual(g.T.W, w.T.W) ||
				g.T.Interned() || g.OldID != relation.InvalidID {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 300; trial++ {
		batches := []*Batch{randBatch(), randBatch(), randBatch()}
		for i, p := range scopeRecords(batches) {
			got, err := DecodeBatch(batches[i].Encode())
			if err != nil || !same(batches[i], got) {
				t.Fatalf("trial %d batch %d: frame round trip: %v", trial, i, err)
			}
			var tab strTable
			for _, q := range scopeRecords(batches[:i]) {
				if _, err := decodeBatch(q, &tab); err != nil {
					t.Fatal(err)
				}
			}
			entries, cut := len(tab.strs), rng.Intn(len(p))
			if _, err := decodeBatch(p[:cut], &tab); err == nil {
				t.Fatalf("trial %d record %d: a cut at %d of %d bytes decoded", trial, i, cut, len(p))
			}
			if len(tab.strs) != entries || len(tab.ids) != entries {
				t.Fatalf("trial %d record %d: a refused record left %d entries in a table of %d", trial, i, len(tab.strs), entries)
			}
			if got, err := decodeBatch(p, &tab); err != nil || !same(batches[i], got) {
				t.Fatalf("trial %d record %d: file round trip: %v", trial, i, err)
			}
		}
	}
}

// nonCanonicalBatches are records the batch reader refuses, each named by
// what it breaks, and one record before each in the same file scope (nil
// for none).
func nonCanonicalBatches(t testing.TB) []struct {
	name, want    string
	before, batch []byte
} {
	head := func(nstrs byte, strs ...string) []byte {
		p := make([]byte, 16, 64)
		p = append(p, nstrs)
		for _, s := range strs {
			p = appendString(p, s)
		}
		return p
	}
	// insert of id 1, arity 2, unweighted, attribute 0: the cells and the
	// old cell vary.
	op := func(c0, c1, old byte) []byte { return []byte{0, 2, 2, c0, c1, 0, 0, old} }
	one := func(p []byte, ops ...[]byte) []byte {
		p = append(p, byte(len(ops)))
		for _, o := range ops {
			p = append(p, o...)
		}
		return p
	}
	// The tip record of the parent format's WAL (version 5), which spelled
	// every value inline.
	old, err := os.ReadFile("../../testdata/golden/datadir-v5/old/wal-0000000001.log")
	if err != nil {
		t.Fatal(err)
	}
	inline, err := ReadFrame(bytes.NewReader(old[len(walMagic)+1:]), maxPayload)
	if err != nil {
		t.Fatal(err)
	}
	good := one(head(2, "a", "b"), op(1, 2, 0))
	if _, err := DecodeBatch(good); err != nil {
		t.Fatalf("the well-formed record is refused: %v", err)
	}
	return []struct {
		name, want    string
		before, batch []byte
	}{
		{"cell past the table", "past the 2 of its scope", nil, one(head(2, "a", "b"), op(1, 3, 2))},
		{"string declared twice in a record", "repeats entry 0", nil, one(head(2, "a", "a"), op(1, 2, 0))},
		{"string declared twice in a file", "repeats entry 1", good, one(head(1, "b"), op(3, 1, 0))},
		{"declared string no cell uses", "used by no cell", nil, one(head(3, "a", "b", "c"), op(1, 2, 0))},
		{"strings out of first-use order", "before entry 0 is first used", nil, one(head(2, "a", "b"), op(2, 1, 0))},
		{"unknown op kind", "unknown op kind 3", nil, one(head(0), []byte{3, 2, 0, 0, 0, 0})},
		{"bad weight flag", "bad weight flag 7", nil, one(head(0), []byte{0, 2, 0, 7, 0, 0})},
		{"huge value count", "implausible value count", nil, one(head(0), []byte{0, 2, 0xff, 0xff, 0xff, 0xff, 0x7f})},
		{"trailing byte", "trailing", nil, append(one(head(0)), 0)},
		{"empty", "truncated", nil, nil},
		{"the inline codec of format 5", "", nil, inline},
	}
}

// TestBatchRejectsGarbage: the batch reader refuses every form its
// writer does not produce, in a frame's scope and a file's, and a
// refused record leaves the file's table as it was.
func TestBatchRejectsGarbage(t *testing.T) {
	for _, c := range nonCanonicalBatches(t) {
		var tab strTable
		if c.before != nil {
			if _, err := decodeBatch(c.before, &tab); err != nil {
				t.Fatalf("%s: the record before: %v", c.name, err)
			}
		}
		entries := len(tab.strs)
		_, err := decodeBatch(c.batch, &tab)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
		if len(tab.strs) != entries || len(tab.ids) != entries {
			t.Errorf("%s: the refused record left the table at %d entries, was %d", c.name, len(tab.strs), entries)
		}
	}
}

// TestLogTornTailKeepsTheTable: a WAL of three records, the later ones
// naming strings the earlier ones declared, cut at every byte offset,
// opens on the records wholly before the cut. A batch appended after
// that names the surviving records' entries and declares only what they
// do not hold — a string the cut took is declared again — and a reopen
// reads every batch back.
func TestLogTornTailKeepsTheTable(t *testing.T) {
	bs := scopeBatches()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int{len(walMagic) + 1}
	for _, b := range bs {
		n, err := l.AppendBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := &Batch{PrevVersion: 7, Version: 8, Ops: []relation.Delta{
		{Kind: relation.DeltaInsert, T: relation.NewTuple(0, "new", "a", "x", "fresh")},
	}}
	for cut := boundaries[0]; cut <= len(whole); cut++ {
		k := 0
		for k+1 < len(boundaries) && boundaries[k+1] <= cut {
			k++
		}
		p := filepath.Join(t.TempDir(), "cut.log")
		if err := os.WriteFile(p, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, discarded, err := Open(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != k || discarded != int64(cut-boundaries[k]) {
			t.Fatalf("cut %d: %d records, %d bytes discarded; want %d and %d", cut, len(got), discarded, k, cut-boundaries[k])
		}
		for i := range got {
			if !bytes.Equal(got[i].Encode(), bs[i].Encode()) {
				t.Fatalf("cut %d: record %d reads back as another batch", cut, i)
			}
		}
		if _, err := l.AppendBatch(next); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, payloads, _, err := openFrames(p)
		if err != nil || len(payloads) != k+1 {
			t.Fatalf("cut %d: %d records after the append (%v)", cut, len(payloads), err)
		}
		want := scopeRecords(append(append([]*Batch(nil), bs[:k]...), next))[k]
		if !bytes.Equal(payloads[k], want) {
			t.Fatalf("cut %d: the appended record declares %q, want %q", cut, declared(t, payloads[k]), declared(t, want))
		}
		l, got, _, err = Open(p)
		if err != nil || len(got) != k+1 || !bytes.Equal(got[k].Encode(), next.Encode()) {
			t.Fatalf("cut %d: the reopened log reads %d records (%v)", cut, len(got), err)
		}
		l.Close()
	}
}

// TestOpenStopsAtAnUndecodableRecord: a record that verifies but does not
// decode in the file's table — here the middle one of three spliced out,
// so the last names entries no record declared — ends what Open reads:
// the batches before it, no log, an error naming the record.
func TestOpenStopsAtAnUndecodableRecord(t *testing.T) {
	recs := scopeRecords(scopeBatches())
	file := AppendHeader(nil, walMagic, WALVersion)
	file = AppendFrame(AppendFrame(file, recs[0]), recs[2])
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, _, err := Open(path)
	if l != nil || len(got) != 1 || err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("Open: log %v, %d batches, err %v; want none, 1 and record 1 named", l != nil, len(got), err)
	}
}
