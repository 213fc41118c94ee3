package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cfdclean/internal/metrics"
	"cfdclean/internal/store"
)

// The service's metrics: one list of families, each declared once with
// its name, type, help and how to read it, and two renderings of that
// list. GET /metrics prints Prometheus text exposition (format 0.0.4):
// HELP/TYPE headers, cumulative le-labelled histogram buckets ending in
// +Inf, and one series per session for the per-session families. GET
// /v1/metrics prints the same families as one JSON object keyed by
// family name: a number, an object keyed by session, or for a histogram
// {count, sum, buckets} with the cumulative buckets of the finite
// bounds. Every value is an atomic load or a histogram read, so a scrape
// never touches a session's worker or its lock.

// promContentType is the exposition format version scrapers negotiate.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// family is one metric family. A service-wide family has one series, a
// per-session one a series for each hosted session value reports ok for.
// A histogram has hist instead of value; both take nil for a
// service-wide family.
type family struct {
	name, typ, help string
	perSession      bool
	value           func(h *hosted) (v float64, ok bool)
	hist            func(h *hosted) *metrics.Histogram
}

func counter(name, help string, c *metrics.Counter) family {
	return family{name: name, typ: "counter", help: help,
		value: func(*hosted) (float64, bool) { return float64(c.Load()), true }}
}

// seconds is a counter kept in nanoseconds and exported in seconds.
func seconds(name, help string, ns *metrics.Counter) family {
	return family{name: name, typ: "counter", help: help,
		value: func(*hosted) (float64, bool) { return time.Duration(ns.Load()).Seconds(), true }}
}

func gauge(name, help string, read func() float64) family {
	return family{name: name, typ: "gauge", help: help,
		value: func(*hosted) (float64, bool) { return read(), true }}
}

func histogram(name, help string, h *metrics.Histogram) family {
	return family{name: name, typ: "histogram", help: help,
		hist: func(*hosted) *metrics.Histogram { return h }}
}

func sessionGauge(name, help string, read func(h *hosted) float64) family {
	return family{name: name, typ: "gauge", help: help, perSession: true,
		value: func(h *hosted) (float64, bool) { return read(h), true }}
}

// storeGauge is a per-session gauge of the page store: durable sessions
// have a series, memory-only ones none.
func storeGauge(name, help string, read func(st *store.Stats) float64) family {
	return family{name: name, typ: "gauge", help: help, perSession: true,
		value: func(h *hosted) (float64, bool) {
			if st := h.pers.storeStats(); st != nil {
				return read(st), true
			}
			return 0, false
		}}
}

func sessionHistogram(name, help string, hist func(in *instruments) *metrics.Histogram) family {
	return family{name: name, typ: "histogram", help: help, perSession: true,
		hist: func(h *hosted) *metrics.Histogram { return hist(h.ops) }}
}

func sessionCounter(name, help string, c func(in *instruments) *metrics.Counter) family {
	return family{name: name, typ: "counter", help: help, perSession: true,
		value: func(h *hosted) (float64, bool) { return float64(c(h.ops).Load()), true }}
}

// declareFamilies lists every family the service exports, in document
// order.
func (s *Server) declareFamilies() []family {
	r := s.reg
	return []family{
		gauge("cfdserved_uptime_seconds", "Seconds since the server started.", func() float64 { return time.Since(s.started).Seconds() }),
		gauge("cfdserved_sessions", "Hosted sessions.", func() float64 { return float64(len(r.List())) }),
		counter("cfdserved_passes_total", "Engine passes completed.", &r.passes),
		counter("cfdserved_batches_total", "Client batches accepted.", &r.batches),
		counter("cfdserved_coalesced_total", "Client batches merged into a shared engine pass.", &r.coalesced),
		counter("cfdserved_rejected_total", "Async ingests refused with a full queue (backpressure 429).", &r.rejected),
		counter("cfdserved_rate_limited_total", "Writes refused by a tenant quota (429/403).", r.ops.rateLimited),
		counter("cfdserved_error_batches_total", "Batches Check refused, plus engine passes that failed.", r.ops.errorBatches),
		counter("cfdserved_tuples_total", "Tuples inserted.", &r.tuples),
		// rate(wal bytes)/rate(tuples) is the WAL's bytes per logged tuple.
		counter("cfdserved_wal_bytes_total", "Bytes appended to WAL files, record headers included.", &r.walBytes),
		counter("cfdserved_sse_dropped_total", "Events dropped at slow SSE subscribers.", r.ops.sseDropped),
		counter("cfdserved_ship_batches_total", "Batches acknowledged by this node's followers.", r.ship.Batches),
		counter("cfdserved_ship_snapshots_total", "Snapshot installs shipped (bootstrap and resyncs).", r.ship.Snapshots),
		counter("cfdserved_ship_degraded_total", "Replication delivery failures absorbed.", r.ship.Degraded),
		counter("cfdserved_ship_dropped_total", "Replication frames dropped on a full backlog or backoff.", r.ship.Dropped),
		counter("cfdserved_replica_applied_total", "Shipped batches applied on this node as a follower.", &r.replicaApplied),
		// Finished dumps only; rate(rows)/rate(seconds) is the benchmark's
		// read_rows_per_s as the server sees it.
		counter("cfdserved_dump_rows_total", "Rows streamed by finished CSV dumps.", &r.dumpRows),
		counter("cfdserved_dump_bytes_total", "CSV bytes written by finished dumps.", &r.dumpBytes),
		seconds("cfdserved_dump_seconds_total", "Handler seconds spent in finished dumps.", &r.dumpNanos),
		// A page is 1 024 rows; cached/(cached+encoded) is the share of a
		// dump the relation's CSV page cache served.
		counter("cfdserved_dump_pages_cached_total", "Row pages finished dumps wrote from the CSV page cache.", &r.dumpPagesCached),
		counter("cfdserved_dump_pages_encoded_total", "Row pages finished dumps encoded afresh.", &r.dumpPagesEncoded),
		// seconds/bodies is the decode share of the benchmark's
		// server.codec_ms, and the encode seconds are the server's share of
		// the rest; stdlib/bodies is the share of traffic outside the
		// hand-written decoder's subset.
		counter("cfdserved_apply_bodies_total", "Apply and ingest request bodies read.", &r.applyBodies),
		counter("cfdserved_apply_bodies_stdlib_total", "Apply and ingest bodies the hand-written decoder declined and encoding/json decoded.", &r.applyBodiesStdlib),
		counter("cfdserved_apply_body_bytes_total", "Bytes of apply and ingest request bodies read.", &r.applyBodyBytes),
		seconds("cfdserved_apply_decode_seconds_total", "Seconds spent decoding apply and ingest bodies, either decoder.", &r.applyDecodeNanos),
		counter("cfdserved_apply_reply_bytes_total", "Bytes of successful apply replies written.", &r.applyReplyBytes),
		seconds("cfdserved_apply_encode_seconds_total", "Seconds spent building and writing successful apply replies.", &r.applyEncodeNanos),
		histogram("cfdserved_pass_duration_seconds", "Engine pass duration.", r.ops.passLat),
		histogram("cfdserved_fsync_lag_seconds", "WAL append to fsync-acknowledged lag.", r.ops.walLag),
		histogram("cfdserved_fold_batches", "Client batches folded per engine pass.", r.ops.foldSize),
		sessionGauge("cfdserved_session_queue_depth", "Work-queue occupancy per session.", func(h *hosted) float64 { return float64(len(h.queue)) }),
		sessionGauge("cfdserved_session_queue_capacity", "Work-queue capacity per session.", func(h *hosted) float64 { return float64(cap(h.queue)) }),
		sessionGauge("cfdserved_session_relation_size", "Tuples currently in the session's relation.", func(h *hosted) float64 { return float64(h.sess.Snapshot().Size) }),
		sessionGauge("cfdserved_session_persist_broken", "1 when the session's persistence has failed and it refuses writes (read-only), else 0.", func(h *hosted) float64 {
			if h.pers.failure() != nil {
				return 1
			}
			return 0
		}),
		storeGauge("cfdserved_session_store_gen", "Committed page-store manifest generation per durable session.", func(st *store.Stats) float64 { return float64(st.Gen) }),
		storeGauge("cfdserved_session_store_pages", "Committed pages in the session's page store.", func(st *store.Stats) float64 { return float64(st.Pages) }),
		storeGauge("cfdserved_session_store_flush_pages", "Pages the session's last committed store flush wrote.", func(st *store.Stats) float64 { return float64(st.FlushPages) }),
		storeGauge("cfdserved_session_store_dict_entries", "Persisted intern-dictionary entries in the session's page store.", func(st *store.Stats) float64 { return float64(st.DictEntries) }),
		{name: "cfdserved_session_disk_bytes", typ: "gauge", help: "On-disk footprint of the durable session's directory: WAL generations and page store.", perSession: true,
			value: func(h *hosted) (float64, bool) {
				n, ok := h.pers.diskBytes()
				return float64(n), ok
			}},
		sessionHistogram("cfdserved_session_pass_duration_seconds", "Engine pass duration per session.", func(in *instruments) *metrics.Histogram { return in.passLat }),
		sessionHistogram("cfdserved_session_fsync_lag_seconds", "WAL append to fsync-acknowledged lag per session.", func(in *instruments) *metrics.Histogram { return in.walLag }),
		sessionHistogram("cfdserved_session_fold_batches", "Client batches folded per engine pass per session.", func(in *instruments) *metrics.Histogram { return in.foldSize }),
		sessionCounter("cfdserved_session_sse_dropped_total", "Events dropped at this session's slow SSE subscribers.", func(in *instruments) *metrics.Counter { return in.sseDropped }),
		sessionCounter("cfdserved_session_error_batches_total", "Batches Check refused, plus engine passes that failed, per session.", func(in *instruments) *metrics.Counter { return in.errorBatches }),
		sessionCounter("cfdserved_session_rate_limited_total", "Writes refused by this session's quota.", func(in *instruments) *metrics.Counter { return in.rateLimited }),
		sessionCounter("cfdserved_session_nearest_queries_total", "Similarity queries the engine's passes made over an active domain, per session.", func(in *instruments) *metrics.Counter { return in.nearest }),
		sessionCounter("cfdserved_session_nearest_visited_total", "Active-domain values the similarity queries visited, per session.", func(in *instruments) *metrics.Counter { return in.nearVisited }),
		sessionCounter("cfdserved_session_nearest_measured_total", "Visited values the similarity queries measured with the DL kernel, per session.", func(in *instruments) *metrics.Counter { return in.nearMeasured }),
		sessionCounter("cfdserved_session_resolve_rounds_total", "Greedy rounds TUPLERESOLVE ran over dirty arrivals, per session.", func(in *instruments) *metrics.Counter { return in.rounds }),
		sessionCounter("cfdserved_session_resolve_free_pins_total", "TUPLERESOLVE rounds decided from the attribute masks alone, per session.", func(in *instruments) *metrics.Counter { return in.freePins }),
		sessionCounter("cfdserved_session_vio_probes_total", "TUPLERESOLVE's per-group vio(t) probes of the LHS indexes, per session.", func(in *instruments) *metrics.Counter { return in.vioProbes }),
		sessionCounter("cfdserved_session_bucket_rescans_total", "LHS buckets the violation store recounted from their tallies, per session.", func(in *instruments) *metrics.Counter { return in.rescans }),
	}
}

// series calls fn once per series of f: with a nil session for a
// service-wide family, else for each session of hs that has one. hist is
// set for a histogram, v otherwise.
func (f *family) series(hs []*hosted, fn func(h *hosted, v float64, hist *metrics.Histogram)) {
	if !f.perSession {
		hs = []*hosted{nil}
	}
	for _, h := range hs {
		if f.hist != nil {
			fn(h, 0, f.hist(h))
		} else if v, ok := f.value(h); ok {
			fn(h, v, nil)
		}
	}
}

// handlePrometheus serves the exposition document. Sessions come from
// the registry listing (name-sorted), so the document is deterministic
// for a fixed state.
func (s *Server) handlePrometheus(w http.ResponseWriter, req *http.Request) {
	hs := s.reg.List()
	var b strings.Builder
	for _, f := range s.families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.series(hs, func(h *hosted, v float64, hist *metrics.Histogram) {
			labels := ""
			if h != nil {
				labels = `session="` + escapeLabel(h.name) + `"`
			}
			if hist == nil {
				writeSample(&b, f.name, labels, v)
				return
			}
			buckets, n, sum := hist.Cumulative()
			for _, bk := range buckets {
				le := `le="` + formatValue(bk.LE) + `"`
				if labels != "" {
					le = labels + "," + le
				}
				writeSample(&b, f.name+"_bucket", le, float64(bk.Count))
			}
			writeSample(&b, f.name+"_sum", labels, sum)
			writeSample(&b, f.name+"_count", labels, float64(n))
		})
	}
	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String())
}

// handleMetrics serves the families as one JSON object keyed by family
// name.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	hs := s.reg.List()
	out := make(map[string]any, len(s.families))
	for _, f := range s.families {
		var bySession map[string]any
		if f.perSession {
			bySession = map[string]any{}
			out[f.name] = bySession
		}
		f.series(hs, func(h *hosted, v float64, hist *metrics.Histogram) {
			var x any = v
			if hist != nil {
				buckets, n, sum := hist.Cumulative()
				x = map[string]any{"count": n, "sum": sum, "buckets": buckets[:len(buckets)-1]}
			}
			if h == nil {
				out[f.name] = x
			} else {
				bySession[h.name] = x
			}
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// writeSample writes one exposition series; labels is the inside of the
// braces, already escaped.
func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteString(" " + formatValue(v) + "\n")
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline. Session names can legally
// contain quotes (only slashes, colons and whitespace are banned), so
// this is not optional.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatValue renders a sample value or bucket bound: the shortest
// decimal that round-trips, and the last bucket's bound as "+Inf".
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}
