// Operational metrics. Besides the paper's repair-quality measures,
// the long-running service (internal/server, cmd/cfdserved) needs
// cheap, concurrency-safe instruments for its hot paths: pass latency,
// WAL append→fsync lag, coalesce fold sizes, and event counts. A
// fixed-bucket histogram and a monotone counter cover all of them, and
// both can feed a parent: one call on a session's instrument also
// counts in the service-wide one, which therefore never drops when the
// session goes away.

package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotone count safe for concurrent use.
type Counter struct {
	n      atomic.Uint64
	parent *Counter
}

// Child returns a zero counter whose every Add also adds to c. A nil c
// gives a counter with no parent.
func (c *Counter) Child() *Counter { return &Counter{parent: c} }

// Add adds n to c and to its ancestors; a nil counter counts nothing.
func (c *Counter) Add(n uint64) {
	for ; c != nil; c = c.parent {
		c.n.Add(n)
	}
}

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Histogram is a fixed-bucket histogram safe for concurrent use. Bounds
// are upper bucket edges in increasing order; an observation lands in
// the first bucket whose bound is >= the value, or in the overflow
// bucket past the last bound. Observations are a mutex and two adds —
// cheap enough for per-request paths.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1: the last slot is the overflow bucket
	n      uint64
	sum    float64
	parent *Histogram
}

// NewHistogram builds a histogram over the given upper bucket bounds
// (must be increasing; the overflow bucket is implicit).
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Child returns an empty histogram over h's bounds whose every
// observation is also recorded in h.
func (h *Histogram) Child() *Histogram {
	c := NewHistogram(h.bounds...)
	c.parent = h
	return c
}

// Observe records one value in h and in its ancestors.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	for ; h != nil; h = h.parent {
		h.mu.Lock()
		h.counts[i]++
		h.n++
		h.sum += v
		h.mu.Unlock()
	}
}

// CumBucket is one Prometheus-style cumulative bucket: Count is the
// number of observations with value <= LE, and the final bucket's LE is
// +Inf (its count equals the total observation count).
type CumBucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Cumulative is the one read of a histogram, in Prometheus exposition
// semantics: one bucket per configured bound plus the +Inf bucket, each
// carrying the cumulative count of observations at or below its bound.
// Empty buckets are kept — a scraper needs the full bucket layout to
// compute quantiles — and an unobserved histogram returns all-zero
// buckets rather than nil, so idle series still expose their shape.
func (h *Histogram) Cumulative() (buckets []CumBucket, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets = make([]CumBucket, 0, len(h.bounds)+1)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		buckets = append(buckets, CumBucket{LE: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)]
	buckets = append(buckets, CumBucket{LE: math.Inf(1), Count: cum})
	return buckets, h.n, h.sum
}
