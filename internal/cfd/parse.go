package cfd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"cfdclean/internal/relation"
)

// Parse reads a CFD specification file over schema s. The format:
//
//	# comments and blank lines are ignored
//	cfd phi1: [AC, PN] -> [STR, CT, ST]
//	(212, _ || _, NYC, NY)
//	(610, _ || _, PHI, PA)
//	cfd fd3: [id] -> [name, PR]
//	(_ || _, _)
//
// Each `cfd` header starts a constraint; the following parenthesized rows
// are its pattern tableau, with LHS cells before `||` and RHS cells after.
// `_` is the wildcard; constants containing commas, parens, `_`, `||` or
// spaces can be single-quoted ('New York'). A standard FD is a CFD whose
// tableau is the single all-wildcard row. Lines end at "\n" or "\r\n"; a
// carriage return anywhere else is refused. A constant is kept byte for
// byte, invalid UTF-8 included, as ReadCSV keeps a data value.
func Parse(s *relation.Schema, r io.Reader) ([]*CFD, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)

	var out []*CFD
	var cur *header
	line := 0
	flush := func() error {
		if cur == nil {
			return nil
		}
		if len(cur.rows) == 0 {
			return fmt.Errorf("cfd: line %d: constraint %q has no pattern rows", cur.line, cur.name)
		}
		φ, err := New(cur.name, s, cur.lhs, cur.rhs, cur.rows...)
		if err != nil {
			return fmt.Errorf("cfd: line %d: %w", cur.line, err)
		}
		out = append(out, φ)
		cur = nil
		return nil
	}
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		// One string per line; a row's constants are slices of it.
		text := string(b)
		switch {
		case strings.ContainsRune(text, '\r'):
			return nil, fmt.Errorf("cfd: line %d: carriage return inside a line", line)
		case strings.HasPrefix(text, "cfd "):
			if err := flush(); err != nil {
				return nil, err
			}
			h, err := parseHeader(text, line)
			if err != nil {
				return nil, err
			}
			cur = h
		case strings.HasPrefix(text, "("):
			if cur == nil {
				return nil, fmt.Errorf("cfd: line %d: pattern row before any cfd header", line)
			}
			row, err := parseRow(text, line, len(cur.lhs), len(cur.rhs))
			if err != nil {
				return nil, err
			}
			cur.rows = append(cur.rows, row)
		default:
			return nil, fmt.Errorf("cfd: line %d: expected 'cfd' header or '(...)' pattern row, got %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cfd: reading specification: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cfd: specification contains no constraints")
	}
	return out, nil
}

// maxLine bounds the lines Parse reads: a line and its "\n" must fit in
// maxLine bytes.
const maxLine = 1 << 20

type header struct {
	name     string
	lhs, rhs []string
	rows     [][]Cell
	line     int
}

// parseHeader parses `cfd name: [A, B] -> [C, D]`. The name may itself
// contain colons (mined rules are named after their dependency), so the
// delimiter is the last colon before the bracketed attribute lists.
func parseHeader(text string, line int) (*header, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(text, "cfd "))
	colon := strings.Index(rest, ": [")
	if colon < 0 {
		colon = strings.Index(rest, ":")
	}
	if colon < 0 {
		return nil, fmt.Errorf("cfd: line %d: header missing ':' after name", line)
	}
	name := strings.TrimSpace(rest[:colon])
	if name == "" {
		return nil, fmt.Errorf("cfd: line %d: empty constraint name", line)
	}
	body := strings.TrimSpace(rest[colon+1:])
	parts := strings.SplitN(body, "->", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("cfd: line %d: header missing '->'", line)
	}
	lhs, err := parseAttrList(parts[0], line)
	if err != nil {
		return nil, err
	}
	rhs, err := parseAttrList(parts[1], line)
	if err != nil {
		return nil, err
	}
	return &header{name: name, lhs: lhs, rhs: rhs, line: line}, nil
}

func parseAttrList(s string, line int) ([]string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("cfd: line %d: attribute list %q must be bracketed", line, s)
	}
	inner := s[1 : len(s)-1]
	var out []string
	for _, f := range strings.Split(inner, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return nil, fmt.Errorf("cfd: line %d: empty attribute in %q", line, s)
		}
		out = append(out, f)
	}
	return out, nil
}

// parseRow parses `(c1, c2 || c3)` into cells. The row is split at its
// first `||`; a row that does not parse so is split at the first `||`
// outside single quotes instead, which lets an LHS constant hold `||`
// ('a||b') without changing what any row that parses at its first `||`
// means.
func parseRow(text string, line, nl, nr int) ([]Cell, error) {
	if !strings.HasSuffix(text, ")") {
		return nil, fmt.Errorf("cfd: line %d: pattern row must end with ')'", line)
	}
	inner := text[1 : len(text)-1]
	at := strings.Index(inner, "||")
	if at < 0 {
		return nil, fmt.Errorf("cfd: line %d: pattern row missing '||' separator", line)
	}
	cells, err := splitRow(inner, at, line, nl, nr)
	if err != nil {
		if q := unquotedSeparator(inner); q > at {
			if cells, qerr := splitRow(inner, q, line, nl, nr); qerr == nil {
				return cells, nil
			}
		}
	}
	return cells, err
}

// splitRow parses the two sides of a row's inner text split at the `||`
// at index at into one slice of cells, LHS cells first.
func splitRow(inner string, at, line, nl, nr int) ([]Cell, error) {
	row, err := appendCells(make([]Cell, 0, nl+nr), inner[:at], line)
	if err != nil {
		return nil, err
	}
	l := len(row)
	if row, err = appendCells(row, inner[at+2:], line); err != nil {
		return nil, err
	}
	if l != nl || len(row)-l != nr {
		return nil, fmt.Errorf("cfd: line %d: pattern row has %d||%d cells, want %d||%d", line, l, len(row)-l, nl, nr)
	}
	return row, nil
}

// unquotedSeparator returns the index of the first `||` of s outside
// single quotes, or -1.
func unquotedSeparator(s string) int {
	quoted := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'':
			quoted = !quoted
		case !quoted && strings.HasPrefix(s[i:], "||"):
			return i
		}
	}
	return -1
}

// appendCells appends the cells of one side of a row to row: s is split
// at the commas outside single quotes, and each constant is a slice of s.
func appendCells(row []Cell, s string, line int) ([]Cell, error) {
	quoted, start := false, 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'':
			quoted = !quoted
		case s[i] == ',' && !quoted:
			c, err := parseCell(s[start:i], line)
			if err != nil {
				return nil, err
			}
			row = append(row, c)
			start = i + 1
		}
	}
	c, err := parseCell(s[start:], line)
	if err != nil {
		return nil, err
	}
	return append(row, c), nil
}

func parseCell(f string, line int) (Cell, error) {
	f = strings.TrimSpace(f)
	switch {
	case f == "_":
		return W, nil
	case len(f) >= 2 && f[0] == '\'' && f[len(f)-1] == '\'':
		return C(f[1 : len(f)-1]), nil
	case f == "":
		return Cell{}, fmt.Errorf("cfd: line %d: empty pattern cell", line)
	case strings.ContainsRune(f, '\''):
		return Cell{}, fmt.Errorf("cfd: line %d: unbalanced quote in cell %q", line, f)
	}
	return C(f), nil
}

// Format renders CFDs in the syntax accepted by Parse. The syntax is one
// line per header or row, at most maxLine bytes long, and has no escape
// for a single quote, so Format refuses what Parse would not read back as
// written: a name or constant holding a line break ("\n" or "\r"), a line
// longer than Parse reads, and a row holding `'` that reads back as other
// cells (`x'||'y` beside `z,` would). A row holding a quote is checked by
// parsing its text back: `O'Neil's` reads back as written, and so does
// `it's` as the last cell of its side. The text is rendered whole before
// it is written, so on an error Format writes nothing.
func Format(w io.Writer, cfds []*CFD) error {
	n := 0 // a size hint; the text may outgrow it
	for _, φ := range cfds {
		n += len("cfd : [] -> []\n\n") + len(φ.Name) + 16*len(φ.LHS) + 16*len(φ.RHS)
		for _, row := range φ.Tableau {
			n += len("( || )\n")
			for _, c := range row {
				n += len(c.Const) + len("'', ")
			}
		}
	}
	b := make([]byte, 0, n)
	for _, φ := range cfds {
		if strings.ContainsAny(φ.Name, "\r\n") {
			return fmt.Errorf("cfd: %q: a name holding a line break cannot be formatted", φ.Name)
		}
		start := len(b)
		b = append(b, "cfd "...)
		b = append(b, φ.String()...)
		if b = append(b, '\n'); len(b)-start > maxLine {
			return fmt.Errorf("cfd: %.40q: the header is longer than a line Parse reads and cannot be formatted", φ.Name)
		}
		for _, row := range φ.Tableau {
			quotes := 0 // the constants holding `'`
			for _, c := range row {
				if strings.ContainsAny(c.Const, "\r\n") {
					return fmt.Errorf("cfd: %s: the constant %q holds a line break and cannot be formatted", φ.Name, c.Const)
				}
				if strings.IndexByte(c.Const, '\'') >= 0 {
					quotes++
				}
			}
			start := len(b)
			b = appendRow(b, row, len(φ.LHS))
			if len(b)+1-start > maxLine {
				return fmt.Errorf("cfd: %s: a row of %d bytes is longer than a line Parse reads and cannot be formatted", φ.Name, len(b)-start)
			}
			if quotes > 0 {
				if err := checkQuotes(φ, row, string(b[start:]), quotes); err != nil {
					return err
				}
			}
			b = append(b, '\n')
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// appendRow appends row as Format writes it, `(lhs || rhs)`, and returns
// the extended slice; its first nl cells are the LHS.
func appendRow(b []byte, row []Cell, nl int) []byte {
	b = append(b, '(')
	b = appendFormatted(b, row[:nl])
	b = append(b, " || "...)
	b = appendFormatted(b, row[nl:])
	return append(b, ')')
}

// appendFormatted appends cells comma-separated, quoting a constant that
// would not read back as itself unquoted.
func appendFormatted(b []byte, cells []Cell) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, ", "...)
		}
		switch {
		case c.Wildcard:
			b = append(b, '_')
		case c.Const == "_" || strings.ContainsAny(c.Const, ",()'|") || strings.TrimSpace(c.Const) != c.Const || c.Const == "":
			b = append(b, '\'')
			b = append(b, c.Const...)
			b = append(b, '\'')
		default:
			b = append(b, c.Const...)
		}
	}
	return b
}

// checkQuotes refuses a row of φ that Parse would not read back as
// written from text, the row as appendRow writes it; quotes of its
// constants hold `'`. The error names the first cell that reads back as
// another, or, when the text does not parse, the one constant holding a
// quote; failing both, it names the row.
func checkQuotes(φ *CFD, row []Cell, text string, quotes int) error {
	back, err := parseRow(text, 0, len(φ.LHS), len(φ.RHS))
	at := -1
	if err == nil {
		if slices.Equal(back, row) {
			return nil
		}
		for i := range row {
			if back[i] != row[i] {
				at = i
				break
			}
		}
	} else if quotes == 1 {
		at = slices.IndexFunc(row, func(c Cell) bool { return strings.IndexByte(c.Const, '\'') >= 0 })
	}
	if at < 0 || row[at].Wildcard {
		return fmt.Errorf("cfd: %s: the row %s holds quotes that would not read back as written, and cannot be formatted", φ.Name, text)
	}
	return fmt.Errorf("cfd: %s: the constant %q would not read back as written (its row holds a quote), and cannot be formatted", φ.Name, row[at].Const)
}
