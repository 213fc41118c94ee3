package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// NullLiteral is the CSV representation of SQL null, chosen because
// ordinary data rarely spells it. WriteCSV quotes fields per RFC 4180
// (encoding/csv's rule), so commas, quotes, line breaks and leading blanks
// survive WriteCSV → ReadCSV; two values do not: a non-null value equal to
// `\N` reads back as null, and "\r\n" inside a value (or an attribute name)
// reads back as "\n" (encoding/csv's Reader drops the carriage return). Nor
// does one row: in a relation of one attribute, a row holding the empty
// string is written as an empty line (as encoding/csv writes it), and the
// Reader skips it.
const NullLiteral = `\N`

// ReadCSV loads a relation from CSV. The first record is the header and
// becomes the schema (relation name given by name). Fields equal to
// NullLiteral load as null. All tuples get unit weights.
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// Records are copied into Values (and interned by Insert) immediately,
	// so the reader's record slice can be reused across rows.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	schema, err := NewSchema(name, header...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		if len(rec) != schema.Arity() {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, want %d", line, len(rec), schema.Arity())
		}
		vals := make([]Value, len(rec))
		for i, f := range rec {
			if f == NullLiteral {
				vals[i] = NullValue
			} else {
				vals[i] = S(f)
			}
		}
		if err := rel.Insert(&Tuple{Vals: vals}); err != nil {
			return nil, fmt.Errorf("relation: CSV line %d: %w", line, err)
		}
	}
	return rel, nil
}

// WriteCSV writes the relation as CSV with a header row. Null values are
// written as NullLiteral. It shares its row codec (csvWriter, cursor.go)
// with the streaming View.WriteCSV, so a pinned view at the same version
// is byte-identical.
func WriteCSV(rel *Relation, w io.Writer) error {
	enc := newCSVWriter(w, rel.Schema(), rel.dict)
	for _, t := range rel.Tuples() {
		if err := enc.row(t); err != nil {
			return err
		}
	}
	return enc.close()
}

// WriteWeightsCSV writes the per-attribute confidence weights as a CSV
// parallel to WriteCSV: header row, then one row per tuple with weights
// formatted at full precision. Tuples without weights write 1 everywhere.
func WriteWeightsCSV(rel *Relation, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rel.Schema().Attrs()); err != nil {
		return fmt.Errorf("relation: writing weights header: %w", err)
	}
	rec := make([]string, rel.Schema().Arity())
	for _, t := range rel.Tuples() {
		for i := range rec {
			rec[i] = strconv.FormatFloat(t.Weight(i), 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation: writing weights for tuple %d: %w", t.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadWeightsCSV attaches weights from a CSV produced by WriteWeightsCSV
// to the tuples of rel, in order. The header must match the schema. The
// whole file is read and checked before any weight is set: on error, rel's
// weights are as they were.
func ReadWeightsCSV(rel *Relation, r io.Reader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relation: reading weights header: %w", err)
	}
	if len(header) != rel.Schema().Arity() {
		return fmt.Errorf("relation: weights header has %d fields, want %d", len(header), rel.Schema().Arity())
	}
	for i, h := range header {
		if rel.Schema().Attr(i) != h {
			return fmt.Errorf("relation: weights header %q at position %d, want %q", h, i, rel.Schema().Attr(i))
		}
	}
	tuples, arity := rel.Tuples(), rel.Schema().Arity()
	ws := make([]float64, 0, len(tuples)*arity)
	for i := 0; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			if i != len(tuples) {
				return fmt.Errorf("relation: weights CSV has %d rows, relation has %d tuples", i, len(tuples))
			}
			break
		}
		if err != nil {
			return fmt.Errorf("relation: reading weights row %d: %w", i+2, err)
		}
		if i >= len(tuples) {
			return fmt.Errorf("relation: weights CSV has more rows than the relation's %d tuples", len(tuples))
		}
		if len(rec) != arity {
			return fmt.Errorf("relation: weights row %d has %d fields, want %d", i+2, len(rec), arity)
		}
		for a, f := range rec {
			w, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("relation: weights row %d field %d: %w", i+2, a, err)
			}
			if !(0 <= w && w <= 1) { // written so that NaN fails it too
				return fmt.Errorf("relation: weights row %d field %d: weight %v outside [0,1]", i+2, a, w)
			}
			ws = append(ws, w)
		}
	}
	for i, t := range tuples {
		for a, w := range ws[i*arity : (i+1)*arity] {
			t.SetWeight(a, w)
		}
	}
	return nil
}
