package relation

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// decodeDelta decodes one Delta from the front of b, returning the delta
// and the number of bytes consumed.
func decodeDelta(b []byte) (Delta, int, error) {
	d := NewDecoder(b, errors.New("relation: delta"))
	dl := d.Delta()
	return dl, d.pos, d.err
}

// TestDeltaCodecRoundTrip fuzzes AppendDelta/Decoder.Delta: every delta
// kind, null and empty values, weight vectors (bit-exact floats), and
// multi-delta buffers with exact consumed-byte accounting.
func TestDeltaCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return NullValue
		case 1:
			return S("")
		case 2:
			return S("plain")
		default:
			b := make([]byte, rng.Intn(20))
			rng.Read(b)
			return S(string(b))
		}
	}
	randDelta := func() Delta {
		d := Delta{Kind: DeltaKind(rng.Intn(3))}
		tp := &Tuple{ID: TupleID(rng.Int63n(1 << 40))}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			tp.Vals = append(tp.Vals, randVal())
		}
		if tp.Vals != nil && rng.Intn(2) == 0 {
			tp.W = make([]float64, len(tp.Vals))
			for i := range tp.W {
				tp.W[i] = math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // finite
			}
		}
		d.T = tp
		d.Attr = rng.Intn(8)
		d.Old = randVal()
		return d
	}

	for trial := 0; trial < 300; trial++ {
		var deltas []Delta
		var buf []byte
		for i, n := 0, rng.Intn(5)+1; i < n; i++ {
			d := randDelta()
			deltas = append(deltas, d)
			buf = AppendDelta(buf, &d)
		}
		pos := 0
		for i, want := range deltas {
			got, n, err := decodeDelta(buf[pos:])
			if err != nil {
				t.Fatalf("trial %d delta %d: %v", trial, i, err)
			}
			pos += n
			if got.Kind != want.Kind || got.Attr != want.Attr || got.T.ID != want.T.ID {
				t.Fatalf("trial %d delta %d: header mismatch", trial, i)
			}
			if !StrictEq(got.Old, want.Old) || !StrictEqVals(got.T.Vals, want.T.Vals) {
				t.Fatalf("trial %d delta %d: values mismatch", trial, i)
			}
			if !reflect.DeepEqual(got.T.W, want.T.W) {
				t.Fatalf("trial %d delta %d: weights mismatch: %v != %v", trial, i, got.T.W, want.T.W)
			}
			if got.T.Interned() {
				t.Fatalf("trial %d delta %d: decoded tuple claims interned ids", trial, i)
			}
			if got.OldID != InvalidID {
				t.Fatalf("trial %d delta %d: OldID = %d, want InvalidID", trial, i, got.OldID)
			}
		}
		if pos != len(buf) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, pos, len(buf))
		}
		// Every strict prefix must error, never mis-decode as a shorter
		// valid stream of the SAME delta (truncation safety).
		if len(buf) > 1 {
			cut := rng.Intn(len(buf)-1) + 1
			if pos = 0; true {
				ok := true
				for range deltas {
					_, n, err := decodeDelta(buf[pos:cut])
					if err != nil {
						ok = false
						break
					}
					pos += n
				}
				if ok && pos == cut {
					// Extremely unlikely: a cut landing exactly on a
					// delta boundary is a legitimate shorter stream.
					if cut != len(buf) {
						boundary := false
						q := 0
						for range deltas {
							_, n, _ := decodeDelta(buf[q:])
							q += n
							if q == cut {
								boundary = true
							}
						}
						if !boundary {
							t.Fatalf("trial %d: truncation at %d decoded cleanly off-boundary", trial, cut)
						}
					}
				}
			}
		}
	}
}

// TestDeltaCodecRejectsGarbage: corrupt headers fail loudly.
func TestDeltaCodecRejectsGarbage(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":       {},
		"bad-kind":    {9},
		"no-id":       {0},
		"bad-wflag":   append(AppendDelta(nil, &Delta{Kind: DeltaInsert, T: &Tuple{ID: 1}})[:4], 7),
		"huge-nvals":  {0, 2, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"bad-val-tag": {0, 2, 1, 9},
	} {
		if _, _, err := decodeDelta(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestRestoreJournalMarks: the recovery hook only advances the id
// watermark (an id below a live tuple's would corrupt the relation) and
// overwrites the version counter.
func TestRestoreJournalMarks(t *testing.T) {
	r := New(MustSchema("R", "a"))
	r.MustInsert(NewTuple(0, "x"))
	r.MustInsert(NewTuple(0, "y"))
	if r.NextID() != 3 || r.Version() != 2 {
		t.Fatalf("setup: nextID=%d version=%d", r.NextID(), r.Version())
	}
	r.RestoreJournalMarks(10, 55)
	if r.NextID() != 10 || r.Version() != 55 {
		t.Fatalf("advance: nextID=%d version=%d", r.NextID(), r.Version())
	}
	r.RestoreJournalMarks(4, 60) // nextID must not rewind
	if r.NextID() != 10 || r.Version() != 60 {
		t.Fatalf("rewind guard: nextID=%d version=%d", r.NextID(), r.Version())
	}
	tp := NewTuple(0, "z")
	r.MustInsert(tp)
	if tp.ID != 10 {
		t.Fatalf("insert after restore got id %d, want 10", tp.ID)
	}
}
