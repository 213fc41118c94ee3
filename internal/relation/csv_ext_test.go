package relation_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
	"testing"

	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// dataset71 is a generated §7.1 database of n tuples at the benchmark's
// settings, weights included.
func dataset71(tb testing.TB, n int, seed int64) *gen.Dataset {
	tb.Helper()
	ds, err := gen.New(gen.Config{Size: n, NoiseRate: 0.05, ConstShare: 0.5, PatternRows: 600, Weights: true, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// TestWriteWeightsCSVGeneratedMatchesStdlib: on generated databases the
// weights file is byte for byte what encoding/csv wrote for it, and it
// reads back to the same weights.
func TestWriteWeightsCSVGeneratedMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := dataset71(t, 2000, seed)
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		cw.Write(ds.Dirty.Schema().Attrs())
		rec := make([]string, ds.Dirty.Schema().Arity())
		for _, tu := range ds.Dirty.Tuples() {
			for a := range rec {
				rec[a] = strconv.FormatFloat(tu.Weight(a), 'g', -1, 64)
			}
			cw.Write(rec)
		}
		cw.Flush()
		var got bytes.Buffer
		if err := relation.WriteWeightsCSV(ds.Dirty, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: WriteWeightsCSV differs from encoding/csv", seed)
		}
		back := ds.Dirty.Clone()
		for _, tu := range back.Tuples() {
			tu.W = nil
		}
		if err := relation.ReadWeightsCSV(back, &got); err != nil {
			t.Fatal(err)
		}
		for i, tu := range back.Tuples() {
			for a := range tu.Vals {
				if w, want := tu.Weight(a), ds.Dirty.Tuples()[i].Weight(a); w != want {
					t.Fatalf("seed %d: t%d attribute %d read back as %v, want %v", seed, tu.ID, a, w, want)
				}
			}
		}
	}
}

// TestCSVLoadAllocs pins what loading a generated database and its
// weights allocates. ReadCSV: three times a row (the tuple, its values,
// its ids), once per distinct value, and the growth of the relation's
// tables — nothing per field. ReadWeightsCSV: once a row (the weight
// vector SetWeight materializes). WriteWeightsCSV: a handful in all.
func TestCSVLoadAllocs(t *testing.T) {
	const n = 500
	ds := dataset71(t, n, 1)
	var data, weights bytes.Buffer
	if err := relation.WriteCSV(ds.Dirty, &data); err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteWeightsCSV(ds.Dirty, &weights); err != nil {
		t.Fatal(err)
	}
	distinct := ds.Dirty.Dict().Len()
	var rel *relation.Relation
	read := testing.AllocsPerRun(5, func() {
		var err error
		if rel, err = relation.ReadCSV("order", bytes.NewReader(data.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(3*n + distinct + 300); read > want {
		t.Errorf("ReadCSV of %d rows (%d distinct values) allocates %.0f times, want at most %.0f", n, distinct, read, want)
	}
	readW := testing.AllocsPerRun(5, func() {
		for _, tu := range rel.Tuples() {
			tu.W = nil
		}
		if err := relation.ReadWeightsCSV(rel, bytes.NewReader(weights.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(n + 10); readW > want {
		t.Errorf("ReadWeightsCSV of %d rows allocates %.0f times, want at most %.0f", n, readW, want)
	}
	write := testing.AllocsPerRun(5, func() {
		if err := relation.WriteWeightsCSV(ds.Dirty, io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if write > 10 {
		t.Errorf("WriteWeightsCSV of %d rows allocates %.0f times, want at most 10", n, write)
	}
	t.Logf("ReadCSV %.0f (%d distinct values), ReadWeightsCSV %.0f, WriteWeightsCSV %.0f allocations for %d rows", read, distinct, readW, write, n)
}

// BenchmarkCSVCodec times the three CSV codecs a §7 run loads D and its
// weights through — WriteWeightsCSV, ReadCSV and ReadWeightsCSV — on a
// generated database of 500 and of 5 000 tuples.
func BenchmarkCSVCodec(b *testing.B) {
	for _, n := range []int{500, 5000} {
		ds := dataset71(b, n, 1)
		var data, weights bytes.Buffer
		if err := relation.WriteCSV(ds.Dirty, &data); err != nil {
			b.Fatal(err)
		}
		if err := relation.WriteWeightsCSV(ds.Dirty, &weights); err != nil {
			b.Fatal(err)
		}
		b.Run("WriteWeightsCSV/tuples="+strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(weights.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if err := relation.WriteWeightsCSV(ds.Dirty, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("ReadCSV/tuples="+strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(data.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := relation.ReadCSV("order", bytes.NewReader(data.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("ReadWeightsCSV/tuples="+strconv.Itoa(n), func(b *testing.B) {
			rel := ds.Dirty.Clone()
			b.SetBytes(int64(weights.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if err := relation.ReadWeightsCSV(rel, bytes.NewReader(weights.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
