package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cfdclean/internal/metrics"
	"cfdclean/internal/store"
)

// Prometheus text exposition (GET /metrics). The JSON report at
// /v1/metrics stays the human- and test-facing shape; this endpoint
// renders the same instruments in the exposition format scrapers
// expect: HELP/TYPE headers, cumulative le-labelled histogram buckets
// ending in +Inf, and one series per session for the per-tenant
// instruments. Everything is assembled from atomic counter loads and
// per-histogram snapshots — a scrape never touches a session's worker
// or its lock.

// promContentType is the exposition format version scrapers negotiate.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promWriter accumulates one exposition document. Metric families are
// written whole — HELP, TYPE, then every series — which is what the
// format requires (a family's series must be consecutive).
type promWriter struct {
	b strings.Builder
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline. Session names can legally
// contain quotes (only slashes, colons and whitespace are banned), so
// this is not optional.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a sample value; exposition floats use the
// shortest representation that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLE renders a bucket bound for the le label; the last bucket is
// literally "+Inf".
func formatLE(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func (p *promWriter) header(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one series; labels alternate key, value and values are
// escaped here.
func (p *promWriter) sample(name string, labels []string, value string) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(value)
	p.b.WriteByte('\n')
}

// counter writes a single-series counter family.
func (p *promWriter) counter(name, help string, v uint64) {
	p.header(name, help, "counter")
	p.sample(name, nil, strconv.FormatUint(v, 10))
}

// gauge writes a single-series gauge family.
func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.sample(name, nil, formatValue(v))
}

// histogramSeries writes one histogram's bucket/sum/count series under
// the shared family name, with the given base labels.
func (p *promWriter) histogramSeries(name string, labels []string, h *metrics.Histogram) {
	buckets, count, sum := h.Cumulative()
	for _, b := range buckets {
		p.sample(name+"_bucket", append(append([]string(nil), labels...), "le", formatLE(b.LE)), strconv.FormatUint(b.Count, 10))
	}
	p.sample(name+"_sum", labels, formatValue(sum))
	p.sample(name+"_count", labels, strconv.FormatUint(count, 10))
}

// labelledCounter is one (session, value) pair of a per-session counter
// family.
type labelledCounter struct {
	session string
	value   uint64
}

func (p *promWriter) sessionCounter(name, help string, vals []labelledCounter) {
	p.header(name, help, "counter")
	for _, v := range vals {
		p.sample(name, []string{"session", v.session}, strconv.FormatUint(v.value, 10))
	}
}

// handlePrometheus serves the exposition document. Sessions come from
// the registry listing (already name-sorted), so scrape output is
// deterministic for a fixed state — which is also what the parser-based
// test relies on.
func (s *Server) handlePrometheus(w http.ResponseWriter, req *http.Request) {
	hs := s.reg.List() // name-sorted
	p := &promWriter{}

	// Service-wide gauges and counters.
	p.gauge("cfdserved_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	p.gauge("cfdserved_sessions", "Hosted sessions.", float64(len(hs)))
	p.counter("cfdserved_passes_total", "Engine passes completed.", s.reg.passes.Load())
	p.counter("cfdserved_batches_total", "Client batches accepted.", s.reg.batches.Load())
	p.counter("cfdserved_coalesced_total", "Client batches merged into a shared engine pass.", s.reg.coalesced.Load())
	p.counter("cfdserved_rejected_total", "Async ingests refused with a full queue (backpressure 429).", s.reg.rejected.Load())
	p.counter("cfdserved_rate_limited_total", "Writes refused by a tenant quota (429/403).", s.reg.rateLimited.Load())
	p.counter("cfdserved_error_batches_total", "Engine passes that returned an error.", s.reg.errorPasses.Load())
	p.counter("cfdserved_tuples_total", "Tuples inserted.", s.reg.tuples.Load())
	p.counter("cfdserved_sse_dropped_total", "Events dropped at slow SSE subscribers.", s.reg.sseDrops.Load())
	st := shipTotals(hs)
	p.counter("cfdserved_ship_batches_total", "Batches acknowledged by this node's followers.", st.Batches)
	p.counter("cfdserved_ship_snapshots_total", "Snapshot installs shipped (bootstrap and resyncs).", st.Snapshots)
	p.counter("cfdserved_ship_degraded_total", "Replication delivery failures absorbed.", st.Degraded)
	p.counter("cfdserved_ship_dropped_total", "Replication frames dropped on a full backlog or backoff.", st.Dropped)
	p.counter("cfdserved_replica_applied_total", "Shipped batches applied on this node as a follower.", s.reg.replicaApplied.Load())
	// Finished dumps only; rate(rows)/rate(seconds) is the benchmark's
	// read_rows_per_s as the server sees it.
	p.counter("cfdserved_dump_rows_total", "Rows streamed by finished CSV dumps.", s.reg.dumpRows.Load())
	p.counter("cfdserved_dump_bytes_total", "CSV bytes written by finished dumps.", s.reg.dumpBytes.Load())
	p.header("cfdserved_dump_seconds_total", "Handler seconds spent in finished dumps.", "counter")
	p.sample("cfdserved_dump_seconds_total", nil, formatValue(time.Duration(s.reg.dumpNanos.Load()).Seconds()))
	// seconds/bodies is the decode share of the benchmark's
	// server.codec_ms, and the encode seconds are the server's share of
	// the rest; stdlib/bodies is the share of traffic outside the
	// hand-written decoder's subset.
	p.counter("cfdserved_apply_bodies_total", "Apply and ingest request bodies read.", s.reg.applyBodies.Load())
	p.counter("cfdserved_apply_bodies_stdlib_total", "Apply and ingest bodies the hand-written decoder declined and encoding/json decoded.", s.reg.applyBodiesStdlib.Load())
	p.counter("cfdserved_apply_body_bytes_total", "Bytes of apply and ingest request bodies read.", s.reg.applyBodyBytes.Load())
	p.header("cfdserved_apply_decode_seconds_total", "Seconds spent decoding apply and ingest bodies, either decoder.", "counter")
	p.sample("cfdserved_apply_decode_seconds_total", nil, formatValue(time.Duration(s.reg.applyDecodeNanos.Load()).Seconds()))
	p.counter("cfdserved_apply_reply_bytes_total", "Bytes of successful apply replies written.", s.reg.applyReplyBytes.Load())
	p.header("cfdserved_apply_encode_seconds_total", "Seconds spent building and writing successful apply replies.", "counter")
	p.sample("cfdserved_apply_encode_seconds_total", nil, formatValue(time.Duration(s.reg.applyEncodeNanos.Load()).Seconds()))

	// Service-wide histograms.
	p.header("cfdserved_pass_duration_seconds", "Engine pass duration.", "histogram")
	p.histogramSeries("cfdserved_pass_duration_seconds", nil, s.reg.passLat)
	p.header("cfdserved_fsync_lag_seconds", "WAL append to fsync-acknowledged lag.", "histogram")
	p.histogramSeries("cfdserved_fsync_lag_seconds", nil, s.reg.walLag)
	p.header("cfdserved_fold_batches", "Client batches folded per engine pass.", "histogram")
	p.histogramSeries("cfdserved_fold_batches", nil, s.reg.foldSize)

	// Per-session gauges: queue occupancy and relation size.
	p.header("cfdserved_session_queue_depth", "Work-queue occupancy per session.", "gauge")
	for _, h := range hs {
		p.sample("cfdserved_session_queue_depth", []string{"session", h.name}, strconv.Itoa(len(h.queue)))
	}
	p.header("cfdserved_session_queue_capacity", "Work-queue capacity per session.", "gauge")
	for _, h := range hs {
		p.sample("cfdserved_session_queue_capacity", []string{"session", h.name}, strconv.Itoa(cap(h.queue)))
	}
	p.header("cfdserved_session_relation_size", "Tuples currently in the session's relation.", "gauge")
	for _, h := range hs {
		p.sample("cfdserved_session_relation_size", []string{"session", h.name}, strconv.Itoa(h.sess.Snapshot().Size))
	}

	// Per-session store gauges render only for disk-backed sessions; a
	// memory-only node emits the headers with no series, which parsers
	// accept and keeps the document shape stable.
	type storeSample struct {
		session string
		st      *store.Stats
	}
	var stores []storeSample
	for _, h := range hs {
		if st := h.pers.storeStats(); st != nil {
			stores = append(stores, storeSample{h.name, st})
		}
	}
	p.header("cfdserved_session_store_gen", "Committed page-store manifest generation per disk-backed session.", "gauge")
	for _, s := range stores {
		p.sample("cfdserved_session_store_gen", []string{"session", s.session}, strconv.FormatUint(s.st.Gen, 10))
	}
	p.header("cfdserved_session_store_pages", "Committed pages in the session's page store.", "gauge")
	for _, s := range stores {
		p.sample("cfdserved_session_store_pages", []string{"session", s.session}, strconv.Itoa(s.st.Pages))
	}
	p.header("cfdserved_session_store_dirty_pages", "Dirty pages awaiting the session's next store flush.", "gauge")
	for _, s := range stores {
		p.sample("cfdserved_session_store_dirty_pages", []string{"session", s.session}, strconv.Itoa(s.st.DirtyPages))
	}
	p.header("cfdserved_session_store_cached_pages", "Pages the last recovery scan left cached in the session's page store.", "gauge")
	for _, s := range stores {
		p.sample("cfdserved_session_store_cached_pages", []string{"session", s.session}, strconv.Itoa(s.st.CachedPages))
	}
	p.header("cfdserved_session_store_dict_entries", "Persisted intern-dictionary entries in the session's page store.", "gauge")
	for _, s := range stores {
		p.sample("cfdserved_session_store_dict_entries", []string{"session", s.session}, strconv.Itoa(s.st.DictEntries))
	}
	p.header("cfdserved_session_store_disk_bytes", "On-disk footprint of the session's page store.", "gauge")
	for _, s := range stores {
		p.sample("cfdserved_session_store_disk_bytes", []string{"session", s.session}, strconv.FormatInt(s.st.DiskBytes, 10))
	}

	// Per-session histograms: one family per instrument, one series set
	// per session.
	p.header("cfdserved_session_pass_duration_seconds", "Engine pass duration per session.", "histogram")
	for _, h := range hs {
		p.histogramSeries("cfdserved_session_pass_duration_seconds", []string{"session", h.name}, h.ops.passLat)
	}
	p.header("cfdserved_session_fsync_lag_seconds", "WAL append to fsync-acknowledged lag per session.", "histogram")
	for _, h := range hs {
		p.histogramSeries("cfdserved_session_fsync_lag_seconds", []string{"session", h.name}, h.ops.walLag)
	}
	p.header("cfdserved_session_fold_batches", "Client batches folded per engine pass per session.", "histogram")
	for _, h := range hs {
		p.histogramSeries("cfdserved_session_fold_batches", []string{"session", h.name}, h.ops.foldSize)
	}

	// Per-session counters.
	var dropped, errored, limited []labelledCounter
	for _, h := range hs {
		dropped = append(dropped, labelledCounter{h.name, h.ops.sseDropped.Load()})
		errored = append(errored, labelledCounter{h.name, h.ops.errorPasses.Load()})
		limited = append(limited, labelledCounter{h.name, h.ops.rateLimited.Load()})
	}
	p.sessionCounter("cfdserved_session_sse_dropped_total", "Events dropped at this session's slow SSE subscribers.", dropped)
	p.sessionCounter("cfdserved_session_error_batches_total", "Engine passes that returned an error, per session.", errored)
	p.sessionCounter("cfdserved_session_rate_limited_total", "Writes refused by this session's quota.", limited)

	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(p.b.String()))
}
