package relation

import (
	"fmt"
	"io"
	"strconv"
)

// NullLiteral is the CSV representation of SQL null, chosen because
// ordinary data rarely spells it. WriteCSV quotes fields per RFC 4180, so
// commas, quotes, line breaks and leading blanks survive WriteCSV →
// ReadCSV; two values do not: a non-null value equal to `\N` reads back as
// null, and "\r\n" inside a value (or an attribute name) reads back as
// "\n" (the reader reads every "\r\n" as "\n"). Nor does one row: in a
// relation of one attribute, a row holding the empty string is written as
// an empty line, and the reader skips empty lines.
const NullLiteral = `\N`

// ReadCSV loads a relation from CSV. The first record is the header and
// becomes the schema (relation name given by name). Fields equal to
// NullLiteral load as null. All tuples get unit weights. An error names
// the physical line its record starts on.
//
// Each field is looked up in the relation's dictionary by its bytes, so a
// value seen before costs no string and an unseen one one copy, and each
// row goes to Insert as a probe of that dictionary.
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	c := newCSVReader(r)
	defer c.close()
	header, _, err := c.next()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	attrs := make([]string, len(header))
	for i, f := range header {
		attrs[i] = string(f)
	}
	schema, err := NewSchema(name, attrs...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	for {
		rec, line, err := c.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV line %d: %w", line, err)
		}
		if len(rec) != schema.Arity() {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, want %d", line, len(rec), schema.Arity())
		}
		if err := rel.Insert(rel.dict.probeFields(rec)); err != nil {
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
// It goes through WriteCSV's row codec.
func WriteWeightsCSV(rel *Relation, w io.Writer) error {
	enc := newCSVWriter(w, rel.Schema(), rel.dict)
	for _, t := range rel.Tuples() {
		if err := enc.weights(t); err != nil {
			return err
		}
	}
	return enc.close()
}

// ReadWeightsCSV attaches weights from a CSV produced by WriteWeightsCSV
// to the tuples of rel, in order. The header must match the schema. The
// whole file is read and checked before any weight is set: on error, rel's
// weights are as they were. An error names the physical line its record
// starts on.
func ReadWeightsCSV(rel *Relation, r io.Reader) error {
	c := newCSVReader(r)
	defer c.close()
	header, _, err := c.next()
	if err != nil {
		return fmt.Errorf("relation: reading weights header: %w", err)
	}
	if len(header) != rel.Schema().Arity() {
		return fmt.Errorf("relation: weights header has %d fields, want %d", len(header), rel.Schema().Arity())
	}
	for i, h := range header {
		if rel.Schema().Attr(i) != string(h) {
			return fmt.Errorf("relation: weights header %q at position %d, want %q", h, i, rel.Schema().Attr(i))
		}
	}
	tuples, arity := rel.Tuples(), rel.Schema().Arity()
	ws := make([]float64, 0, len(tuples)*arity)
	for i := 0; ; i++ {
		rec, line, err := c.next()
		if err == io.EOF {
			if i != len(tuples) {
				return fmt.Errorf("relation: weights CSV has %d rows, relation has %d tuples", i, len(tuples))
			}
			break
		}
		if err != nil {
			return fmt.Errorf("relation: reading weights line %d: %w", line, err)
		}
		if i >= len(tuples) {
			return fmt.Errorf("relation: weights CSV has more rows than the relation's %d tuples", len(tuples))
		}
		if len(rec) != arity {
			return fmt.Errorf("relation: weights line %d has %d fields, want %d", line, len(rec), arity)
		}
		for a, f := range rec {
			w, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				return fmt.Errorf("relation: weights line %d field %d: %w", line, a, err)
			}
			if !(0 <= w && w <= 1) { // written so that NaN fails it too
				return fmt.Errorf("relation: weights line %d field %d: weight %v outside [0,1]", line, a, w)
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
