package cfd_test

import (
	"reflect"
	"testing"

	"cfdclean"
	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
)

// TestStoreMatchesReferenceScan holds a violation store built over
// generated noisy instances of varying size, noise rate and constant share
// to the every-bucket reference scan: the same violations in the same
// canonical order, the same vio(t) map — which must also equal the bucket
// walk summed tuple by tuple — total and Satisfied.
func TestStoreMatchesReferenceScan(t *testing.T) {
	cases := []gen.Config{
		{Size: 300, NoiseRate: 0.05, ConstShare: 0.5, Seed: 1},
		{Size: 300, NoiseRate: 0.25, ConstShare: 0.2, Seed: 2},
		{Size: 1200, NoiseRate: 0.05, ConstShare: 0.5, Seed: 3, Weights: true},
		{Size: 1200, NoiseRate: 0.15, ConstShare: 0.8, Seed: 4},
	}
	for _, cfg := range cases {
		ds, err := gen.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfd.Satisfies(ds.Dirty, ds.Sigma) {
			t.Fatalf("config %+v: generated instance has no violations; test is vacuous", cfg)
		}
		if d := cfd.DiffStoreVsReference(ds.Dirty, ds.Sigma); d != "" {
			t.Fatalf("config %+v: %s", cfg, d)
		}
	}
}

// TestDetectCanonicalOrder asserts the documented violation order of the
// store's listing: by tuple id, then rule position in sigma, then partner
// id; and that the API's Violations(limit) is a prefix of it.
func TestDetectCanonicalOrder(t *testing.T) {
	ds, err := gen.New(gen.Config{Size: 500, NoiseRate: 0.1, ConstShare: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rank := make(map[*cfd.Normal]int, len(ds.Sigma))
	for i, n := range ds.Sigma {
		rank[n] = i
	}
	s := cfd.NewVioStore(ds.Dirty, ds.Sigma)
	vs := s.Detect()
	s.Close()
	for i := 1; i < len(vs); i++ {
		a, b := vs[i-1], vs[i]
		switch {
		case a.T < b.T:
		case a.T == b.T && rank[a.N] < rank[b.N]:
		case a.T == b.T && rank[a.N] == rank[b.N] && a.With <= b.With:
		default:
			t.Fatalf("violations out of canonical order at %d: %+v then %+v", i, a, b)
		}
	}
	lim := len(vs) / 2
	if lim == 0 {
		t.Fatal("generated instance has fewer than two violations; test is vacuous")
	}
	if pre := cfdclean.Violations(ds.Dirty, ds.Sigma, lim); !reflect.DeepEqual(pre, vs[:lim]) {
		t.Fatal("Violations(limit) is not a prefix of the store's Detect()")
	}
}
