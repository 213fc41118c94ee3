package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cfdclean/internal/strdist"
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its own calls into that layer. Start and End are nanoseconds
// since the run began; Parent indexes the causing span (-1 at the top);
// spans of one op share OpID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced rounds run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, OpID: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the server's
// stage headers), laid out from start.
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, op int) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, OpID: op})
	t.mu.Unlock()
}

// write stores the spans with the run's environment beside them.
func (t *tracer) write(path string, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"env": env, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// strdistSample is how many metric calls share one timed call: timing
// every call would cost more than the short distances it measures.
const strdistSample = 8

// countingMetric is the strdist layer's probe: DL wrapped to count calls
// and, on every strdistSample-th call, time one. It reaches the engines
// through cost.New → Options.CostModel, so it sees the cost model's
// distance calls and not the similarity index's own.
type countingMetric struct {
	calls   atomic.Int64
	sampled atomic.Int64 // nanoseconds over the timed calls
}

var dl = strdist.DL.(strdist.BoundedMetric)

func (c *countingMetric) Distance(a, b string) int {
	if c.calls.Add(1)%strdistSample != 0 {
		return dl.Distance(a, b)
	}
	t := time.Now()
	d := dl.Distance(a, b)
	c.sampled.Add(int64(time.Since(t)))
	return d
}

func (c *countingMetric) DistanceBounded(a, b string, max int) int {
	if c.calls.Add(1)%strdistSample != 0 {
		return dl.DistanceBounded(a, b, max)
	}
	t := time.Now()
	d := dl.DistanceBounded(a, b, max)
	c.sampled.Add(int64(time.Since(t)))
	return d
}

// busy estimates the time spent inside the metric.
func (c *countingMetric) busy() time.Duration {
	return time.Duration(c.sampled.Load() * strdistSample)
}
