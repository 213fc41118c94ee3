package cfd

import (
	"bufio"
	"fmt"
	"io"
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
// carriage return anywhere else is refused.
func Parse(s *relation.Schema, r io.Reader) ([]*CFD, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

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
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
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
// at index at.
func splitRow(inner string, at, line, nl, nr int) ([]Cell, error) {
	l, err := parseCells(inner[:at], line)
	if err != nil {
		return nil, err
	}
	r, err := parseCells(inner[at+2:], line)
	if err != nil {
		return nil, err
	}
	if len(l) != nl || len(r) != nr {
		return nil, fmt.Errorf("cfd: line %d: pattern row has %d||%d cells, want %d||%d", line, len(l), len(r), nl, nr)
	}
	return append(l, r...), nil
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

func parseCells(s string, line int) ([]Cell, error) {
	var out []Cell
	for _, f := range splitQuoted(s) {
		f = strings.TrimSpace(f)
		switch {
		case f == "_":
			out = append(out, W)
		case len(f) >= 2 && f[0] == '\'' && f[len(f)-1] == '\'':
			out = append(out, C(f[1:len(f)-1]))
		case f == "":
			return nil, fmt.Errorf("cfd: line %d: empty pattern cell", line)
		case strings.ContainsAny(f, "'"):
			return nil, fmt.Errorf("cfd: line %d: unbalanced quote in cell %q", line, f)
		default:
			out = append(out, C(f))
		}
	}
	return out, nil
}

// splitQuoted splits on commas not inside single quotes.
func splitQuoted(s string) []string {
	var out []string
	var b strings.Builder
	quoted := false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted = !quoted
			b.WriteRune(r)
		case r == ',' && !quoted:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteRune(r)
		}
	}
	out = append(out, b.String())
	return out
}

// Format renders CFDs in the syntax accepted by Parse. The syntax is one
// line per header or row, so a name or constant holding a line break
// ("\n" or "\r") cannot be written, and Format returns an error for it
// before writing anything.
func Format(w io.Writer, cfds []*CFD) error {
	for _, φ := range cfds {
		if strings.ContainsAny(φ.Name, "\r\n") {
			return fmt.Errorf("cfd: %q: a name holding a line break cannot be formatted", φ.Name)
		}
		for _, row := range φ.Tableau {
			for _, c := range row {
				if strings.ContainsAny(c.Const, "\r\n") {
					return fmt.Errorf("cfd: %s: the constant %q holds a line break and cannot be formatted", φ.Name, c.Const)
				}
			}
		}
	}
	bw := bufio.NewWriter(w)
	for _, φ := range cfds {
		l := make([]string, len(φ.LHS))
		for i, a := range φ.LHS {
			l[i] = φ.Schema.Attr(a)
		}
		r := make([]string, len(φ.RHS))
		for i, a := range φ.RHS {
			r[i] = φ.Schema.Attr(a)
		}
		fmt.Fprintf(bw, "cfd %s: [%s] -> [%s]\n", φ.Name, strings.Join(l, ", "), strings.Join(r, ", "))
		for _, row := range φ.Tableau {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = formatCell(c)
			}
			fmt.Fprintf(bw, "(%s || %s)\n",
				strings.Join(cells[:len(φ.LHS)], ", "),
				strings.Join(cells[len(φ.LHS):], ", "))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func formatCell(c Cell) string {
	if c.Wildcard {
		return "_"
	}
	if c.Const == "_" || strings.ContainsAny(c.Const, ",()'|") || strings.TrimSpace(c.Const) != c.Const || c.Const == "" {
		return "'" + c.Const + "'"
	}
	return c.Const
}
