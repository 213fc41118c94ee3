package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

// csvReaderSeeds are inputs the record reader's rules turn on: quotes,
// doubled quotes, line breaks inside quotes, "\r" in every place, empty
// lines, the errors, and files that end without a newline.
var csvReaderSeeds = []string{
	"a,b\n1,2\n3,4\n",
	"a,b\n1,2\n\n\n3\n",
	"a,b\n\"x\ny\",2\n3\n",
	"a,b\r\n\"q\"\"uote\",\\.\r\n",
	"\"\r\r\n\",\"\n\"\n",
	"a\n\"\"\nx",
	"a,b\n1,2\r",
	"a,b\n\"1\"\r",
	"a,b\n\"1\r",
	"a,b\n1,\"x\"y\n",
	"a,b\n1,x\"y\n",
	"a,b\n\"x\n\n\ny\",\"\"\"\"\n",
	"a,b\n\"unterminated,2\n",
	"\r\n\r\n\n,\n\r",
	"a,\"b\"\n,\n\",\",\n",
	"a\r\rb,c\r\r\n",
	"k,\"the, header\"\n\\N,\"line\nbreak\"\n\"x\ry\",\" lead\"\n",
}

// stdlibRecord is one record as encoding/csv reads it, with the line its
// first field starts on.
type stdlibRecord struct {
	fields []string
	line   int
}

// stdlibRecords reads data with encoding/csv at fieldsPerRecord (the other
// settings at their defaults, as both readers use them): every record up
// to the first error, the line the failed record starts on, and the error.
func stdlibRecords(data []byte, fieldsPerRecord int) ([]stdlibRecord, int, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = fieldsPerRecord
	var out []stdlibRecord
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, 0, nil
		}
		if err != nil {
			var pe *csv.ParseError
			if !errors.As(err, &pe) {
				panic(err)
			}
			return out, pe.StartLine, err
		}
		line, _ := cr.FieldPos(0)
		out = append(out, stdlibRecord{fields: rec, line: line})
	}
}

// csvReaderVariants hands the input to a reader in the ways that change
// where its blocks end: whole, a byte at a time, with io.EOF on the last
// data, and behind one long record that puts the input's middle on the
// first block boundary (straddled is true for that one).
func csvReaderVariants(data []byte) (names []string, readers []io.Reader, straddled []bool) {
	pad := bytes.Repeat([]byte{'p'}, max(csvBlockSize-len(data)/2, 2))
	pad[len(pad)-1] = '\n'
	return []string{"whole", "one byte", "data+EOF", "straddling"},
		[]io.Reader{
			bytes.NewReader(data),
			iotest.OneByteReader(bytes.NewReader(data)),
			iotest.DataErrReader(bytes.NewReader(data)),
			io.MultiReader(bytes.NewReader(pad), bytes.NewReader(data)),
		},
		[]bool{false, false, false, true}
}

// checkReaderVsStdlib holds csvReader to encoding/csv on data, record by
// record: the same fields, the same start line, the same first error.
func checkReaderVsStdlib(t *testing.T, data []byte) {
	t.Helper()
	want, wantLine, wantErr := stdlibRecords(data, -1)
	names, readers, straddled := csvReaderVariants(data)
	for v, r := range readers {
		c := newCSVReader(r)
		pad := 0
		if straddled[v] {
			if _, _, err := c.next(); err != nil {
				t.Fatalf("%s: the padding record: %v", names[v], err)
			}
			pad = 1
		}
		for i := 0; ; i++ {
			rec, line, err := c.next()
			line -= pad
			if i == len(want) {
				switch {
				case wantErr == nil && err != io.EOF:
					t.Fatalf("%s: %.60q: after %d records got %q, %v at line %d; encoding/csv ends there", names[v], data, i, rec, err, line)
				case wantErr != nil && (err == nil || err == io.EOF):
					t.Fatalf("%s: %.60q: record %d read as %q, %v; encoding/csv: %v", names[v], data, i, rec, err, wantErr)
				case wantErr != nil && line != wantLine:
					t.Fatalf("%s: %.60q: record %d: %v at line %d; encoding/csv: %v", names[v], data, i, err, line, wantErr)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s: %.60q: record %d: %v; encoding/csv reads %q", names[v], data, i, err, want[i].fields)
			}
			got := make([]string, len(rec))
			for j, f := range rec {
				got[j] = string(f)
			}
			if !slices.Equal(got, want[i].fields) || line != want[i].line {
				t.Fatalf("%s: %.60q: record %d read as %q at line %d; encoding/csv: %q at line %d", names[v], data, i, got, line, want[i].fields, want[i].line)
			}
		}
		c.close()
	}
}

// stdlibReadCSV is ReadCSV's oracle: the header and rows encoding/csv
// reads, or ok false where ReadCSV must refuse the input.
func stdlibReadCSV(data []byte) (header []string, rows [][]Value, ok bool) {
	recs, _, err := stdlibRecords(data, -1)
	if err != nil || len(recs) == 0 {
		return nil, nil, false
	}
	header = recs[0].fields
	if _, err := NewSchema("r", header...); err != nil {
		return nil, nil, false
	}
	for _, rec := range recs[1:] {
		if len(rec.fields) != len(header) {
			return nil, nil, false
		}
		vals := make([]Value, len(rec.fields))
		for a, f := range rec.fields {
			vals[a] = S(f)
			if f == NullLiteral {
				vals[a] = NullValue
			}
		}
		rows = append(rows, vals)
	}
	return header, rows, true
}

// FuzzReadCSVVsStdlib: the record reader reads what encoding/csv reads,
// record by record, with the line each starts on and the same first error,
// however the input is cut into reads; and ReadCSV accepts exactly the
// files the oracle accepts, with the same header and rows.
func FuzzReadCSVVsStdlib(f *testing.F) {
	for _, s := range csvReaderSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReaderVsStdlib(t, data)
		header, rows, ok := stdlibReadCSV(data)
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
			rel, err := ReadCSV("r", r)
			if (err == nil) != ok {
				t.Fatalf("%.60q: ReadCSV error %v, encoding/csv accepts it: %v", data, err, ok)
			}
			if !ok {
				continue
			}
			if got := rel.Schema().Attrs(); !slices.Equal(got, header) {
				t.Fatalf("%.60q: header %q, want %q", data, got, header)
			}
			if rel.Size() != len(rows) {
				t.Fatalf("%.60q: %d rows, want %d", data, rel.Size(), len(rows))
			}
			for i, tu := range rel.Tuples() {
				if !StrictEqVals(tu.Vals, rows[i]) {
					t.Fatalf("%.60q: row %d is %q, want %q", data, i, tu.Vals, rows[i])
				}
				for a, v := range tu.Vals {
					if id := rel.Dict().LookupValue(v); tu.IDAt(a) != id {
						t.Fatalf("%.60q: row %d attribute %d carries id %d, the dictionary says %d", data, i, a, tu.IDAt(a), id)
					}
				}
			}
		}
	})
}

// stdlibWeights is ReadWeightsCSV's oracle on weightsFixture: the weights
// in row order, or ok false where ReadWeightsCSV must refuse the file.
func stdlibWeights(data []byte) (ws []float64, ok bool) {
	recs, _, err := stdlibRecords(data, 0)
	if err != nil || len(recs) != 3 || !slices.Equal(recs[0].fields, []string{"a", "b"}) {
		return nil, false
	}
	for _, rec := range recs[1:] {
		for _, f := range rec.fields {
			w, err := strconv.ParseFloat(f, 64)
			if err != nil || !(0 <= w && w <= 1) {
				return nil, false
			}
			ws = append(ws, w)
		}
	}
	return ws, true
}

// FuzzReadWeightsCSVVsStdlib: ReadWeightsCSV accepts exactly the weights
// files encoding/csv reads (each record as wide as the header) whose
// header names the schema, whose rows match the tuples and whose every
// field is a number in [0, 1] — and sets those numbers, however the input
// is cut into reads.
func FuzzReadWeightsCSVVsStdlib(f *testing.F) {
	f.Add([]byte("a,b\n0.5,0.5\n0.5,1\n"))
	f.Add([]byte("a,b\n1,0\n\n0.25,1e-3"))
	f.Add([]byte("\"a\",\"b\"\r\n1,\"0\"\r\n1,1\r"))
	f.Add([]byte("a,b\n1\n1,1\n"))
	f.Add([]byte("a,b\n1,1\n1,\"1\n"))
	f.Add([]byte("a,b\n1,1,1\n1,1\n"))
	f.Add([]byte("a,b\n0x1p-2,1\n1,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, ok := stdlibWeights(data)
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
			rel := weightsFixture()
			before := weightsOf(rel)
			err := ReadWeightsCSV(rel, r)
			if (err == nil) != ok {
				t.Fatalf("%.60q: ReadWeightsCSV error %v, oracle accepts it: %v", data, err, ok)
			}
			if !ok {
				if got := weightsOf(rel); !slices.EqualFunc(got, before, slices.Equal) {
					t.Fatalf("%.60q: refused (%v) but weights moved from %v to %v", data, err, before, got)
				}
				continue
			}
			var got []float64
			for _, tu := range rel.Tuples() {
				got = append(got, tu.Weight(0), tu.Weight(1))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%.60q: weights %v, want %v", data, got, want)
			}
		}
	})
}

// TestCSVReaderVsStdlibSeeds runs the differential check on its seeds and
// on records longer than a block, so that the block moves and grows under
// a record that holds quotes, line breaks and "\r\n".
func TestCSVReaderVsStdlibSeeds(t *testing.T) {
	long := strings.Repeat(`ab"",`, csvBlockSize/4) + "\r\n"
	inputs := append([]string{
		"a,b\nx,\"" + long + "y\"\n" + strings.Repeat("p,q\n", csvBlockSize/3),
		"a,b\n" + strings.Repeat("x", 3*csvBlockSize) + ",y\r\nz,w\r",
		strings.Repeat("a,\"b\nc\"\r\n", csvBlockSize/5),
	}, csvReaderSeeds...)
	for _, in := range inputs {
		checkReaderVsStdlib(t, []byte(in))
	}
}

// TestCSVErrorsNameTheLine: a refused record is named by the physical line
// it starts on — blank lines and line breaks inside quotes counted — in
// both readers, and a weights row of the wrong width is reported as such.
func TestCSVErrorsNameTheLine(t *testing.T) {
	for _, c := range []struct{ data, want string }{
		{"a,b\n1,2\n\n\n3\n", "CSV line 5 has 1 fields, want 2"},
		{"a,b\n\"x\ny\",2\n3\n", "CSV line 4 has 1 fields, want 2"},
		{"a,b\r\n\r\n1,2\r\n1,x\"\r\n", `CSV line 4: bare " in non-quoted field`},
		{"a,b\n\"1\n2\",\"3\n\n", `CSV line 2: extraneous or missing " in quoted field`},
		{"a,b\n1,2\n\n\"x\"y,2\n", `CSV line 4: extraneous or missing " in quoted field`},
		{"\n\na,b\n1,2,3\n", "CSV line 4 has 3 fields, want 2"},
	} {
		_, err := ReadCSV("r", strings.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadCSV(%q): %v, want %q", c.data, err, c.want)
		}
	}
	for _, c := range []struct{ data, want string }{
		{"a,b\n1,1\n\n\n0.5\n", "weights line 5 has 1 fields, want 2"},
		{"a,b\n1,1\n1,1,1\n", "weights line 3 has 3 fields, want 2"},
		{"a,b\n\"1\",1\n\n1,x\n", "weights line 4 field 1"},
		{"a,b\n\n1,1\n1,\"1\n", `weights line 4: extraneous or missing " in quoted field`},
		{"a,b\n1,1\r\n\r\n1,7\r\n", "weights line 4 field 1: weight 7 outside [0,1]"},
	} {
		err := ReadWeightsCSV(weightsFixture(), strings.NewReader(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadWeightsCSV(%q): %v, want %q", c.data, err, c.want)
		}
	}
}

// TestCSVReadersReportReadErrors: a reader that fails part-way fails the
// load with its error, in both readers, after the rows before it.
func TestCSVReadersReportReadErrors(t *testing.T) {
	cause := errors.New("connection reset")
	failing := func(prefix string) io.Reader {
		return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(cause))
	}
	if _, err := ReadCSV("r", failing("a,b\n1,2\n3,")); !errors.Is(err, cause) {
		t.Errorf("ReadCSV: %v, want it to wrap %v", err, cause)
	}
	if _, err := ReadCSV("r", failing("")); !errors.Is(err, cause) {
		t.Errorf("ReadCSV of the header: %v, want it to wrap %v", err, cause)
	}
	r := weightsFixture()
	before := weightsOf(r)
	if err := ReadWeightsCSV(r, failing("a,b\n1,1\n1,\"1")); !errors.Is(err, cause) {
		t.Errorf("ReadWeightsCSV: %v, want it to wrap %v", err, cause)
	}
	if got := weightsOf(r); !slices.EqualFunc(got, before, slices.Equal) {
		t.Errorf("a failed read moved the weights from %v to %v", before, got)
	}
}

// stdlibWriteWeights is WriteWeightsCSV as it was written on encoding/csv,
// the oracle of its bytes.
func stdlibWriteWeights(rel *Relation) []byte {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	cw.Write(rel.Schema().Attrs())
	rec := make([]string, rel.Schema().Arity())
	for _, t := range rel.Tuples() {
		for i := range rec {
			rec[i] = strconv.FormatFloat(t.Weight(i), 'g', -1, 64)
		}
		cw.Write(rec)
	}
	cw.Flush()
	return b.Bytes()
}

// TestWriteWeightsCSVMatchesStdlib: WriteWeightsCSV's bytes are what
// encoding/csv wrote for the same weights — under a header that needs
// quotes, at the extremes of formatting a weight in [0, 1] (the longest
// mantissa, exponent form, subnormals, negative zero) and across several
// blocks.
func TestWriteWeightsCSVMatchesStdlib(t *testing.T) {
	weights := []float64{0, 1, 0.5, 0.1, 1.0 / 3, 0.30000000000000004, 1e-300,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 0.9999999999999999,
		1e-5, 0.0001, math.Copysign(0, -1), 0.123456789012345678}
	r := New(MustSchema("r", "a,b", " lead", `q"uote`, "\\.", "é"))
	for i := 0; i < 12000; i++ {
		tu := NewTuple(0, "x", "y", "z", "v", "w")
		if i%3 != 0 { // every third tuple carries no weights
			for a := range tu.Vals {
				tu.SetWeight(a, weights[(i+a)%len(weights)])
			}
		}
		r.MustInsert(tu)
	}
	var got bytes.Buffer
	if err := WriteWeightsCSV(r, &got); err != nil {
		t.Fatal(err)
	}
	want := stdlibWriteWeights(r)
	if got.Len() < 2*csvBlockSize {
		t.Fatalf("fixture is %d bytes, does not cross a block", got.Len())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("WriteWeightsCSV differs from encoding/csv")
	}
	if err := WriteWeightsCSV(r, &failAfter{n: 2, err: io.ErrClosedPipe}); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("a failing writer was reported as %v", err)
	}
}

// TestReadCSVInternsFieldsOnce: every stored value is the dictionary's
// own string, long values read back intact, and the ids and domains
// ReadCSV leaves are those of inserting the rows one by one.
func TestReadCSVInternsFieldsOnce(t *testing.T) {
	rows := [][]Value{
		{S("x"), S("y"), S("x")}, {NullValue, S("x"), S("z")},
		{S("y"), S("x"), NullValue}, {S("z"), S("z"), S("w\nv")},
	}
	for i := 0; i < 12; i++ {
		long := strings.Repeat(string(rune('a'+i)), 1000*i)
		rows = append(rows, []Value{S(long), S(long + "!"), S("x")})
	}
	want := New(MustSchema("r", "a", "b", "c"))
	for _, vals := range rows {
		want.MustInsert(&Tuple{Vals: slices.Clone(vals)})
	}
	got, err := ReadCSV("r", bytes.NewReader(dumpLive(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range got.Tuples() {
		w := want.Tuples()[i]
		if !StrictEqVals(tu.Vals, w.Vals) || !slices.Equal(tu.ids, w.ids) || tu.probed != nil {
			t.Errorf("row %d: %.40q ids %v (probed %v), want %.40q ids %v", i, tu.Vals, tu.ids, tu.probed != nil, w.Vals, w.ids)
		}
		for a, v := range tu.Vals {
			if !v.Null && unsafe.StringData(v.Str) != unsafe.StringData(got.Dict().Str(tu.ids[a])) {
				t.Errorf("row %d attribute %d holds a copy of %.40q, not the dictionary's", i, a, v.Str)
			}
		}
	}
	for a := 0; a < 3; a++ {
		if g, w := got.ActiveDomain(a), want.ActiveDomain(a); !slices.Equal(g, w) {
			t.Errorf("adom(%d) = %.80q, want %.80q", a, g, w)
		}
	}
}
