package cfd_test

import (
	"bytes"
	"io"
	"testing"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
)

// sigma71 is a generated §7.1 workload at the benchmark's settings: 600
// pattern rows, which normalize to 1 275 rows of 18 shapes.
func sigma71(tb testing.TB, seed int64) *gen.Dataset {
	tb.Helper()
	ds, err := gen.New(gen.Config{Size: 500, NoiseRate: 0.05, ConstShare: 0.5, PatternRows: 600, Weights: true, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// TestCompileMatchesByRowGenerated holds Compile to the row-by-row
// reference on §7.1's Σ, into the dictionary of the data it is compiled
// for and into an empty one.
func TestCompileMatchesByRowGenerated(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := sigma71(t, seed)
		for _, dict := range []*relation.Dict{ds.Dirty.Dict(), relation.NewDict()} {
			if d := cfd.DiffCompileByRow(dict, ds.Sigma); d != "" {
				t.Errorf("seed %d into %d constants: %s", seed, dict.Len(), d)
			}
		}
	}
}

// TestCompileAllocs pins Compile's allocations on §7.1's Σ: a few per
// shape and per map, not a few per row (a row-by-row pass makes 10 273).
func TestCompileAllocs(t *testing.T) {
	ds := sigma71(t, 1)
	dict := ds.Dirty.Dict().Clone()
	if n := testing.AllocsPerRun(5, func() { cfd.Compile(dict, ds.Sigma) }); n > 400 {
		t.Errorf("Compile of %d rows allocates %v times, want at most 400", len(ds.Sigma), n)
	}
}

// BenchmarkCompile compiles §7.1's Σ into a dictionary that already holds
// its constants, as every BatchRepair call on such data does first.
func BenchmarkCompile(b *testing.B) {
	ds := sigma71(b, 1)
	dict := ds.Dirty.Dict().Clone()
	b.ReportAllocs()
	for b.Loop() {
		cfd.Compile(dict, ds.Sigma)
	}
}

// BenchmarkSigmaCodec times the Σ text codec on §7.1's Σ: Parse of the
// text Format writes for it, NormalizeAll of its CFDs, and Format itself.
// Together they are how a user loads Σ (cfdclean.ParseCFDs + Normalize)
// and how a durable session writes it.
func BenchmarkSigmaCodec(b *testing.B) {
	ds := sigma71(b, 1)
	var text bytes.Buffer
	if err := cfd.Format(&text, ds.CFDs); err != nil {
		b.Fatal(err)
	}
	b.Run("Parse", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := cfd.Parse(ds.Schema, bytes.NewReader(text.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Normalize", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			cfd.NormalizeAll(ds.CFDs)
		}
	})
	b.Run("Format", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		b.ReportAllocs()
		for b.Loop() {
			if err := cfd.Format(io.Discard, ds.CFDs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
