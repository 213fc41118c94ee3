package relation

import (
	"bytes"
	"errors"
	"io"
	"slices"
)

// The two ways a record holding a quote can be malformed (the wording is
// encoding/csv's).
var (
	errBareQuote = errors.New(`bare " in non-quoted field`)
	errQuote     = errors.New(`extraneous or missing " in quoted field`)
)

// A csvReader is the one CSV record reader, behind ReadCSV and
// ReadWeightsCSV. Its dialect is RFC 4180 as encoding/csv's Reader reads it
// by default: records end at "\n", "\r\n" reads as "\n" (inside a quoted
// field too), a "\r" just before EOF is dropped, empty lines are skipped,
// `""` inside a quoted field reads as `"`, and a quote inside an unquoted
// field or text after a closing quote is an error.
//
// It pulls csvBlockSize blocks from the reader and holds one block plus the
// longest record, never the whole input. A line holding no quote is split
// on ',' where it lies, so its fields are slices of the block; only a
// record holding a quote is copied out, unescaped, into rec.
type csvReader struct {
	r    io.Reader
	blk  *[csvBlockSize]byte // buf's first backing array, csvBlocks' to have back
	buf  []byte
	pos  int // buf[pos:end] is read but not yet consumed
	end  int
	scan int   // buf[pos:scan] holds no '\n'
	eof  bool  // the reader has said io.EOF
	err  error // the reader's error, other than io.EOF
	line int   // physical lines consumed

	fields [][]byte
	rec    []byte // a quoted record's unescaped bytes,
	ends   []int  // and where each of its fields ends in them
}

func newCSVReader(r io.Reader) *csvReader {
	blk := csvBlocks.Get().(*[csvBlockSize]byte)
	return &csvReader{r: r, blk: blk, buf: blk[:]}
}

// close gives the block back; the reader is dead after it, and so is every
// field it returned.
func (c *csvReader) close() {
	csvBlocks.Put(c.blk)
	c.blk, c.buf = nil, nil
}

// next returns the fields of the next record and the physical line (from
// 1) it starts on; io.EOF once no record is left. The fields are valid
// until the next call.
func (c *csvReader) next() ([][]byte, int, error) {
	var ln []byte
	for len(ln) == lengthNL(ln) { // skip empty lines
		var err error
		if ln, err = c.readLine(); err != nil {
			return nil, c.line + 1, err
		}
	}
	line := c.line
	c.fields = c.fields[:0]
	if bytes.IndexByte(ln, '"') < 0 {
		ln = ln[:len(ln)-lengthNL(ln)]
		for {
			i := bytes.IndexByte(ln, ',')
			if i < 0 {
				break
			}
			c.fields = append(c.fields, ln[:i])
			ln = ln[i+1:]
		}
		c.fields = append(c.fields, ln)
		return c.fields, line, nil
	}
	if err := c.quoted(ln); err != nil {
		return nil, line, err
	}
	start := 0
	for _, end := range c.ends {
		c.fields = append(c.fields, c.rec[start:end])
		start = end
	}
	return c.fields, line, nil
}

// quoted parses the record that starts at line ln and holds a quote into
// rec and ends, reading on while a quoted field spans lines.
func (c *csvReader) quoted(ln []byte) error {
	c.rec, c.ends = c.rec[:0], c.ends[:0]
	for {
		if len(ln) == 0 || ln[0] != '"' {
			i := bytes.IndexByte(ln, ',')
			f := ln
			if i >= 0 {
				f = ln[:i]
			} else {
				f = ln[:len(ln)-lengthNL(ln)]
			}
			if bytes.IndexByte(f, '"') >= 0 {
				return errBareQuote
			}
			c.rec = append(c.rec, f...)
			c.ends = append(c.ends, len(c.rec))
			if i < 0 {
				return nil
			}
			ln = ln[i+1:]
			continue
		}
		ln = ln[1:]
		for { // inside the quotes
			i := bytes.IndexByte(ln, '"')
			if i < 0 {
				if len(ln) == 0 {
					return errQuote // the input ends inside the quotes
				}
				// The line is copied out before the next one is read,
				// which may move the block.
				c.rec = append(c.rec, ln...)
				var err error
				if ln, err = c.readLine(); err != nil && err != io.EOF {
					return err
				}
				continue
			}
			c.rec = append(c.rec, ln[:i]...)
			ln = ln[i+1:]
			if len(ln) == 0 || ln[0] != '"' {
				break
			}
			c.rec = append(c.rec, '"') // `""`
			ln = ln[1:]
		}
		c.ends = append(c.ends, len(c.rec))
		switch {
		case len(ln) > 0 && ln[0] == ',':
			ln = ln[1:]
		case len(ln) == lengthNL(ln):
			return nil
		default:
			return errQuote // text after the closing quote
		}
	}
}

// readLine returns the next physical line, its "\n" included, "\r\n" read
// as "\n" and a "\r" just before EOF dropped; io.EOF once no byte is left.
// The line is a slice of the block, valid until the next call.
func (c *csvReader) readLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(c.buf[c.scan:c.end], '\n'); i >= 0 {
			n := c.scan + i + 1
			ln := c.buf[c.pos:n]
			c.pos, c.scan = n, n
			c.line++
			if k := len(ln); k >= 2 && ln[k-2] == '\r' {
				ln[k-2] = '\n'
				ln = ln[:k-1]
			}
			return ln, nil
		}
		c.scan = c.end
		if c.err != nil {
			return nil, c.err
		}
		if c.eof {
			break
		}
		c.fill()
	}
	if c.pos == c.end {
		return nil, io.EOF
	}
	ln := c.buf[c.pos:c.end]
	c.pos = c.end
	c.line++
	if ln[len(ln)-1] == '\r' {
		ln = ln[:len(ln)-1]
	}
	return ln, nil
}

// fill reads more input after end. When the block is full it first moves
// the unconsumed bytes to its front, and only a line that fills the whole
// block grows it.
func (c *csvReader) fill() {
	if c.end == len(c.buf) {
		if c.pos > 0 {
			c.end = copy(c.buf, c.buf[c.pos:c.end])
			c.scan -= c.pos
			c.pos = 0
		} else {
			c.buf = slices.Grow(c.buf, len(c.buf))
			c.buf = c.buf[:cap(c.buf)]
		}
	}
	for range 100 { // as bufio.Reader, give up on a reader that makes no progress
		n, err := c.r.Read(c.buf[c.end:])
		c.end += n
		switch {
		case err == io.EOF:
			c.eof = true
			return
		case err != nil:
			c.err = err
			return
		case n > 0:
			return
		}
	}
	c.err = io.ErrNoProgress
}

// lengthNL is 1 when b ends in "\n", else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}
