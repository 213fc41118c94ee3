package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// stdlibRow is the oracle: the record as encoding/csv's Writer emits it.
func stdlibRow(t testing.TB, rec []string) []byte {
	t.Helper()
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	if err := cw.Write(rec); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// codecRow is the same record through csvWriter, as a header-less row. The
// block is tiny so that rows also straddle flushes and outgrow it.
func codecRow(t testing.TB, rec []string) []byte {
	t.Helper()
	var b bytes.Buffer
	e := &csvWriter{w: &b, buf: make([]byte, 0, 64)}
	e.record(rec)
	if err := e.flush(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// csvAwkward are the fields the quoting rule turns on; the fuzz corpus and
// the table test share them.
var csvAwkward = []string{
	`\.`, `\N`, `"`, `a,b`, ` x`, "\u00a0x", "\u2003x", "\u0085x", "\xff", "\xc2", "a\r\nb",
	"", "\tx", "\vx", "\fx", "x y", "x ", `\.x`, `x\.`, `\`, "a\nb", "\r", `""`, `a"b"c`,
	"é", "日本", "\u3000", "\u1680x", "\u200bx", strings.Repeat(`a"`, 35<<10),
}

// TestCSVRowMatchesStdlib: the codec's rows are encoding/csv's, byte for
// byte — the quoted branch included, which no generated workload reaches.
func TestCSVRowMatchesStdlib(t *testing.T) {
	recs := [][]string{{}, {""}, {"", ""}, {"a", "", "b"}, csvAwkward}
	for _, f := range csvAwkward {
		recs = append(recs, []string{f}, []string{"x", f}, []string{f, "x"}, []string{f, f})
	}
	for b := 0; b < 256; b++ {
		s := string([]byte{byte(b)})
		recs = append(recs, []string{s}, []string{"x" + s}, []string{s + "x", s})
	}
	for _, rec := range recs {
		if got, want := codecRow(t, rec), stdlibRow(t, rec); !bytes.Equal(got, want) {
			t.Errorf("record %.40q:\n got %.80q\nwant %.80q", rec, got, want)
		}
	}

	// Through the public entry point: a header that needs quoting, a null
	// beside a value spelled like one, and enough rows to cross a block.
	r := New(MustSchema("r", "a,b", " lead", `q"uote`))
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.Write(r.Schema().Attrs())
	for i := 0; i < 12000; i++ {
		f := csvAwkward[i%(len(csvAwkward)-1)] // all but the 70 KiB one
		r.MustInsert(&Tuple{Vals: []Value{S(f), NullValue, S(NullLiteral + f)}})
		cw.Write([]string{f, NullLiteral, NullLiteral + f})
	}
	cw.Flush()
	if want.Len() < 2*csvBlockSize {
		t.Fatalf("fixture is %d bytes, does not cross a block", want.Len())
	}
	if got := dumpLive(t, r); !bytes.Equal(got, want.Bytes()) {
		t.Error("WriteCSV differs from encoding/csv")
	}
	v := r.Pin()
	defer v.Release()
	if got := dumpView(t, v); !bytes.Equal(got, want.Bytes()) {
		t.Error("View.WriteCSV differs from encoding/csv")
	}
}

// checkTupleRows inserts rec twice as a tuple of a fresh relation — the
// second row finds every value interned — and holds WriteCSV and a pinned
// View.WriteCSV, which take the dictionary's flags, to encoding/csv.
func checkTupleRows(t *testing.T, rec []string) {
	t.Helper()
	header := make([]string, len(rec))
	for i := range header {
		header[i] = fmt.Sprintf("h%d", i)
	}
	r := New(MustSchema("r", header...))
	r.MustInsert(NewTuple(0, rec...))
	r.MustInsert(NewTuple(0, rec...))
	want := slices.Concat(stdlibRow(t, header), stdlibRow(t, rec), stdlibRow(t, rec))
	if got := dumpLive(t, r); !bytes.Equal(got, want) {
		t.Fatalf("WriteCSV of tuple %q:\n got %q\nwant %q", rec, got, want)
	}
	v := r.Pin()
	defer v.Release()
	if got := dumpView(t, v); !bytes.Equal(got, want) {
		t.Fatalf("View.WriteCSV of tuple %q:\n got %q\nwant %q", rec, got, want)
	}
}

// FuzzCSVRowVsStdlib holds the codec to encoding/csv for arbitrary field
// bytes at every position of a row, as plain strings and as the values of
// an interned tuple.
func FuzzCSVRowVsStdlib(f *testing.F) {
	for _, s := range csvAwkward {
		f.Add(s, "x", "")
		f.Add("x", s, s)
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		for _, rec := range [][]string{{a}, {a, b, c}, {c, a}} {
			if got, want := codecRow(t, rec), stdlibRow(t, rec); !bytes.Equal(got, want) {
				t.Fatalf("record %q:\n got %q\nwant %q", rec, got, want)
			}
			checkTupleRows(t, rec)
		}
	})
}

// TestCSVPlain: the flag the dictionary sets when it interns a value is set
// exactly when encoding/csv writes that value as it is — for every single
// byte, the byte beside a letter, every awkward field and the fuzz seeds.
func TestCSVPlain(t *testing.T) {
	fields := append([]string{"x", "", "ab", "x,"}, csvAwkward...)
	for b := 0; b < 256; b++ {
		s := string([]byte{byte(b)})
		fields = append(fields, s, "x"+s, s+"x")
	}
	d := NewDict()
	for _, s := range fields {
		stdlibPlain := string(stdlibRow(t, []string{s})) == s+"\n"
		id := d.InternStr(s)
		if flags := d.plainFlags(); flags[id] != stdlibPlain || csvPlain(s) != stdlibPlain {
			t.Errorf("%.40q: flag %v, csvPlain %v; encoding/csv writes it unquoted: %v", s, flags[id], csvPlain(s), stdlibPlain)
		}
	}
	if d.plainFlags()[NullID] {
		t.Error("NullID is flagged plain")
	}
}

// TestCSVCloneGrows: a clone keeps its source's flags and grows its own —
// values interned on either side after the clone, awkward ones included,
// dump to encoding/csv's bytes on both.
func TestCSVCloneGrows(t *testing.T) {
	r := New(MustSchema("r", "a", "b"))
	for _, s := range csvAwkward[:len(csvAwkward)/2] {
		r.MustInsert(NewTuple(0, s, "x"))
	}
	c := r.Clone()
	for i, s := range csvAwkward[len(csvAwkward)/2:] {
		c.MustInsert(NewTuple(0, s, fmt.Sprintf("c%d", i)))
		r.MustInsert(NewTuple(0, fmt.Sprintf("r%d", i), s))
	}
	for name, rel := range map[string]*Relation{"source": r, "clone": c} {
		if n, ids := len(rel.Dict().plainFlags()), rel.Dict().Len()+1; n != ids {
			t.Errorf("%s: %d flags for %d ids", name, n, ids)
		}
		want := stdlibRow(t, rel.Schema().Attrs())
		for _, tu := range rel.Tuples() {
			want = append(want, stdlibRow(t, []string{tu.Vals[0].Str, tu.Vals[1].Str})...)
		}
		if got := dumpLive(t, rel); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteCSV differs from encoding/csv", name)
		}
	}
}

// TestCSVRoundTripAwkwardValues: what WriteCSV quotes, ReadCSV reads back
// cell for cell — and the two values the format cannot carry are the two
// the NullLiteral comment names.
func TestCSVRoundTripAwkwardValues(t *testing.T) {
	vals := []string{
		"a,b", `say "hi"`, `"`, "line\nbreak", " lead", "\tlead", "\u00a0lead", "trail ",
		`\.`, "", "é日本", `\n`, "x\ry", "\r", `\N `,
	}
	r := New(MustSchema("r", "k", "the, header", "n"))
	for _, s := range vals {
		r.MustInsert(&Tuple{Vals: []Value{S("k"), S(s), NullValue}})
	}
	got, err := ReadCSV("r", bytes.NewReader(dumpLive(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Attr(1) != "the, header" || got.Size() != len(vals) {
		t.Fatalf("read back header %q, %d rows; want %d", got.Schema().Attrs(), got.Size(), len(vals))
	}
	for i, tu := range got.Tuples() {
		if want := []Value{S("k"), S(vals[i]), NullValue}; !StrictEqVals(tu.Vals, want) {
			t.Errorf("row %d: read back %q, want %q", i, tu.Vals, want)
		}
	}

	lossy := New(MustSchema("r", "a", "b"))
	lossy.MustInsert(NewTuple(0, NullLiteral, "a\r\nb"))
	got, err = ReadCSV("r", bytes.NewReader(dumpLive(t, lossy)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Value{NullValue, S("a\nb")}; !StrictEqVals(got.Tuples()[0].Vals, want) {
		t.Errorf("the two documented losses read back as %q, want %q", got.Tuples()[0].Vals, want)
	}
}

// FuzzReadCSV: whatever ReadCSV accepts, WriteCSV writes and ReadCSV reads
// back to the same header and the same rows, but for the losses
// NullLiteral's comment names: "\r\n" inside a name or a value reads back
// as "\n" (a value read from "\r\r\n" holds one), and a one-attribute row
// holding the empty string reads back as no row. (A value spelled `\N`
// reads as null the first time.)
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,4\n"))
	f.Add([]byte("a\n\"\"\nx\n"))
	f.Add([]byte("k,\"the, header\"\n\\N,\"line\nbreak\"\n\"x\ry\",\" lead\"\n"))
	f.Add([]byte("a,b\r\n\"q\"\"uote\",\\.\r\n"))
	f.Add([]byte("\"\r\r\n\",\"\n\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadCSV("r", bytes.NewReader(data))
		if err != nil {
			return
		}
		readBack := func(s string) string { return strings.ReplaceAll(s, "\r\n", "\n") }
		attrs := r.Schema().Attrs()
		for i, a := range attrs {
			attrs[i] = readBack(a)
		}
		back, err := ReadCSV("r", bytes.NewReader(dumpLive(t, r)))
		if _, serr := NewSchema("r", attrs...); serr != nil {
			if err == nil {
				t.Fatalf("header %q reads back as %q, which NewSchema refuses (%v), yet ReadCSV accepted it", r.Schema().Attrs(), attrs, serr)
			}
			return
		}
		if err != nil {
			t.Fatalf("ReadCSV refuses what WriteCSV wrote: %v", err)
		}
		if got := back.Schema().Attrs(); !slices.Equal(got, attrs) {
			t.Fatalf("header read back as %q, want %q", got, attrs)
		}
		var want [][]Value
		for _, tu := range r.Tuples() {
			if len(tu.Vals) == 1 && tu.Vals[0] == S("") {
				continue
			}
			vals := slices.Clone(tu.Vals)
			for a := range vals {
				vals[a].Str = readBack(vals[a].Str)
			}
			want = append(want, vals)
		}
		got := back.Tuples()
		if len(got) != len(want) {
			t.Fatalf("%d rows read back, want %d", len(got), len(want))
		}
		for i, tu := range got {
			if !StrictEqVals(tu.Vals, want[i]) {
				t.Fatalf("row %d read back as %q, want %q", i, tu.Vals, want[i])
			}
		}
	})
}

// FuzzReadWeightsCSV: every weight ReadWeightsCSV accepts is in [0, 1],
// and a file it refuses leaves every weight as it was.
func FuzzReadWeightsCSV(f *testing.F) {
	f.Add([]byte("a,b\n0.5,0.5\n0.5,7\n"))
	f.Add([]byte("a,b\n1,0\n0.25,1e-3\n"))
	f.Add([]byte("a,b\nNaN,1\n1,1\n"))
	f.Add([]byte("a,b\n1,1\n1,\"1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := weightsFixture()
		before := weightsOf(r)
		if err := ReadWeightsCSV(r, bytes.NewReader(data)); err != nil {
			if got := weightsOf(r); !slices.EqualFunc(got, before, slices.Equal) {
				t.Fatalf("refused (%v) but weights moved from %v to %v", err, before, got)
			}
			return
		}
		for _, tu := range r.Tuples() {
			for a := range tu.Vals {
				if w := tu.Weight(a); !(0 <= w && w <= 1) {
					t.Fatalf("t%d accepted weight %v for attribute %d", tu.ID, w, a)
				}
			}
		}
	})
}

// failAfter fails its n-th Write and counts the calls it sees.
type failAfter struct {
	n, calls int
	err      error
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls >= w.n {
		return 0, w.err
	}
	return len(p), nil
}

// TestWriteCSVStopsAtFirstWriteError: a dead writer ends the dump at the
// block that found it dead, not after every remaining row was encoded.
func TestWriteCSVStopsAtFirstWriteError(t *testing.T) {
	r := New(MustSchema("r", "A", "B"))
	for i := 0; i < 40000; i++ { // ≈ 10 blocks
		r.MustInsert(NewTuple(0, "aaaaaaaa", "bbbbbbbb"))
	}
	cause := errors.New("connection reset")
	v := r.Pin()
	defer v.Release()
	for name, write := range map[string]func(*failAfter) error{
		"WriteCSV":      func(w *failAfter) error { return WriteCSV(r, w) },
		"View.WriteCSV": func(w *failAfter) error { return v.WriteCSV(w) },
	} {
		w := &failAfter{n: 2, err: cause}
		if err := write(w); !errors.Is(err, cause) {
			t.Errorf("%s: error %v does not wrap the cause", name, err)
		}
		if w.calls != 2 {
			t.Errorf("%s: writer saw %d calls, want 2 (none after the failing one)", name, w.calls)
		}
	}
	// A writer that accepts fewer bytes than it is given without an error
	// is as dead.
	if err := WriteCSV(r, shortWriter{}); !errors.Is(err, io.ErrShortWrite) {
		t.Errorf("a short write without an error was reported as %v", err)
	}
}

type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }
