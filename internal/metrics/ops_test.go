package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 3} {
		h.Observe(v)
	}
	buckets, count, sum := h.Cumulative()
	if count != 6 || sum <= 0 {
		t.Fatalf("count = %d, sum = %g; want 6, > 0", count, sum)
	}
	// Two at or below 0.01, one more below 0.1, one more below 1, and
	// the two past the last bound only in +Inf.
	for i, want := range []uint64{2, 3, 4, 6} {
		if buckets[i].Count != want {
			t.Fatalf("bucket le=%g count=%d, want %d", buckets[i].LE, buckets[i].Count, want)
		}
	}
	// The finite buckets are what /v1/metrics serializes (+Inf does not).
	if _, err := json.Marshal(buckets[:len(buckets)-1]); err != nil {
		t.Fatalf("finite buckets do not serialize: %v", err)
	}
}

// TestHistogramCumulative pins the Prometheus exposition semantics of
// the conversion: one bucket per bound plus +Inf, each counting
// observations <= its bound (cumulative, monotone non-decreasing),
// empty buckets retained, and the +Inf bucket equal to the total count.
func TestHistogramCumulative(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1, 10}
	h := NewHistogram(bounds...)

	// Empty histogram: full bucket layout, all zeros.
	buckets, count, sum := h.Cumulative()
	if len(buckets) != len(bounds)+1 || count != 0 || sum != 0 {
		t.Fatalf("empty cumulative: %v count=%d sum=%g", buckets, count, sum)
	}
	for _, b := range buckets {
		if b.Count != 0 {
			t.Fatalf("empty histogram has non-zero bucket: %+v", b)
		}
	}

	obs := []float64{0.005, 0.01, 0.05, 0.5, 1, 2, 50, 60}
	for _, v := range obs {
		h.Observe(v)
	}
	buckets, count, sum = h.Cumulative()
	if count != uint64(len(obs)) {
		t.Fatalf("count = %d, want %d", count, len(obs))
	}
	// Each bucket's count must equal the direct count of observations at
	// or below its bound — the Prometheus definition of le.
	var prev uint64
	for i, b := range buckets {
		want := uint64(0)
		for _, v := range obs {
			if v <= b.LE {
				want++
			}
		}
		if b.Count != want {
			t.Fatalf("bucket le=%g count=%d, want %d", b.LE, b.Count, want)
		}
		if b.Count < prev {
			t.Fatalf("bucket %d not monotone: %d after %d", i, b.Count, prev)
		}
		prev = b.Count
	}
	last := buckets[len(buckets)-1]
	if !math.IsInf(last.LE, 1) {
		t.Fatalf("last bucket bound = %g, want +Inf", last.LE)
	}
	if last.Count != count {
		t.Fatalf("+Inf bucket %d != count %d", last.Count, count)
	}
	var wantSum float64
	for _, v := range obs {
		wantSum += v
	}
	if sum != wantSum {
		t.Fatalf("sum = %g, want %g", sum, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1, 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if _, n, _ := h.Cumulative(); n != 8000 {
		t.Fatalf("count = %d, want 8000", n)
	}
}

// TestChildrenCountInParents: one call on a child instrument counts in
// the child and in every ancestor, siblings stay apart, and a nil
// counter (a bare fixture with no sink) absorbs an Add.
func TestChildrenCountInParents(t *testing.T) {
	var total Counter
	a, b := total.Child(), total.Child()
	a.Add(2)
	b.Add(3)
	b.Child().Add(1)
	if total.Load() != 6 || a.Load() != 2 || b.Load() != 4 {
		t.Fatalf("counters: total %d a %d b %d, want 6 2 4", total.Load(), a.Load(), b.Load())
	}
	var none *Counter
	none.Add(1)
	orphan := none.Child()
	orphan.Add(5)
	if orphan.Load() != 5 {
		t.Fatalf("orphan child = %d, want 5", orphan.Load())
	}

	all := NewHistogram(1, 10)
	one, two := all.Child(), all.Child()
	one.Observe(0.5)
	two.Observe(5)
	two.Observe(50)
	want := [][3]uint64{{1, 1, 1}, {0, 1, 2}, {1, 2, 3}} // one, two, all
	for i, h := range []*Histogram{one, two, all} {
		buckets, n, _ := h.Cumulative()
		got := [3]uint64{buckets[0].Count, buckets[1].Count, n}
		if got != want[i] {
			t.Fatalf("histogram %d: buckets+count %v, want %v", i, got, want[i])
		}
	}
	if _, _, sum := all.Cumulative(); sum != 55.5 {
		t.Fatalf("parent sum = %g, want 55.5", sum)
	}
}
