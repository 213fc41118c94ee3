package main

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strconv"
	"time"
)

// The reference kernel. This box's speed drifts by a quarter — at times by
// half — in phases of a second to a few minutes, with nothing in
// /proc/stat to show for it, so a 15-second timing repeats to ±15 % however
// many ops sit under its median. What does repeat is a timing divided by
// that of a fixed piece of work done right beside it: rounds call refKernel
// between ops, and report their timings at reference speed, i.e. divided by
// the kernel's time around them over refNominal.
//
// The yardstick must not move when the code under test changes, so:
//   - it uses the standard library only, none of the repository's code;
//   - it runs only while the system under test is idle — between the calls
//     of an in-process round, and on serve_mixed in a quiet window in which
//     the writer has its reply and the reader is held between two reads;
//   - it allocates nothing: it starts no garbage collection and assists in
//     none, so the size and shape of the heap the code under test left
//     behind do not reach it.
//
// README.md ("Noise") has the measurements behind each of these.

// refNominal is one refKernel call on the box the sizes were chosen on, in
// a calm phase, made as rounds make it: on caches an op has just used. It
// only fixes the unit: reported times are what the run would have taken had
// the kernel run at exactly this speed.
const refNominal = 5 * time.Millisecond

// The kernel's working set, built once: it is called from one goroutine at
// a time.
var ref = newRefState()

type refState struct {
	keys   []uint32          // fixed pseudo-random keys
	sorted []uint32          // scratch copy the kernel sorts
	index  map[uint32]uint32 // holds every key: updates never grow it
	text   []byte            // formatting scratch
	a, b   [48]byte          // edit-distance operands
	row    [2][49]int32
	recs   [][]string   // a fixed relation, written out as CSV ...
	out    bytes.Buffer // ... into this, which has grown to its size
	enc    *csv.Writer
	sink   uint32
}

func newRefState() *refState {
	s := &refState{
		keys:   make([]uint32, 4096),
		sorted: make([]uint32, 4096),
		index:  make(map[uint32]uint32, 4096),
		text:   make([]byte, 0, 64),
		recs:   make([][]string, 6000),
	}
	x := uint32(12345)
	next := func() int {
		x = x*1664525 + 1013904223
		return int(x >> 8)
	}
	for i := range s.keys {
		s.keys[i] = uint32(next())
		s.index[s.keys[i]] = uint32(i)
	}
	for i := range s.recs {
		s.recs[i] = []string{
			strconv.Itoa(next() % 100000),
			"name-" + strconv.Itoa(next()%500),
			strconv.Itoa(next()%10000) + "." + strconv.Itoa(next()%100),
			"city " + strconv.Itoa(next()%300),
			strconv.Itoa(10000 + next()%89999),
			"street " + strconv.Itoa(next()%2000),
		}
	}
	s.enc = csv.NewWriter(&s.out)
	s.writeCSV()
	return s
}

// refKernel is shaped like the work it stands in for: sorting, hash-map
// traffic, number formatting, edit distances, and a relation streamed out
// as CSV.
func refKernel() {
	s := ref
	for rep := 0; rep < 5; rep++ {
		copy(s.sorted, s.keys)
		slices.Sort(s.sorted)
		s.sink += s.sorted[rep]
	}
	for rep := 0; rep < 10; rep++ {
		for _, k := range s.keys {
			s.index[k] += k & 3
		}
	}
	for rep := 0; rep < 2; rep++ {
		for _, k := range s.keys {
			s.text = strconv.AppendUint(s.text[:0], uint64(k), 10)
			s.sink += uint32(len(s.text))
		}
	}
	x := s.sink | 1
	for pair := 0; pair < 256; pair++ {
		for i := range s.a {
			x = x*1664525 + 1013904223
			s.a[i] = 'a' + byte(x>>28)
			s.b[i] = 'a' + byte(x>>20&15)
		}
		s.sink += uint32(s.editDistance())
	}
	s.writeCSV()
}

func (s *refState) writeCSV() {
	s.out.Reset()
	for _, r := range s.recs {
		s.enc.Write(r)
	}
	s.enc.Flush()
	s.sink += uint32(s.out.Len())
}

// editDistance is plain Levenshtein over the two fixed operands, the
// harness's own.
func (s *refState) editDistance() int32 {
	prev, cur := &s.row[0], &s.row[1]
	for j := range prev {
		prev[j] = int32(j)
	}
	for i := 1; i <= len(s.a); i++ {
		cur[0] = int32(i)
		for j := 1; j <= len(s.b); j++ {
			c := prev[j-1]
			if s.a[i-1] != s.b[j-1] {
				c++
			}
			cur[j] = min(c, prev[j]+1, cur[j-1]+1)
		}
		prev, cur = cur, prev
	}
	return prev[len(s.b)]
}
