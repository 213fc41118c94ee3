package server

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// parentFamilies is every HELP and TYPE line of GET /metrics, in document
// order, as recorded at the commit before the family list replaced the
// two hand-built renderings, plus the families added since
// (cfdserved_session_persist_broken, the three similarity-search
// counters cfdserved_session_nearest_*, and the four other IndexStats
// counters), the error-batch help reworded once a batch Check refuses
// stopped running a pass, and cfdserved_session_store_disk_bytes
// replaced in place by cfdserved_session_disk_bytes, which sums the
// session's whole directory rather than its page store, its help since
// naming no snapshot header (that file kind is gone), and
// cfdserved_wal_bytes_total added behind cfdserved_tuples_total: adding, moving,
// renaming or retyping a family is a change to this list, never a side
// effect.
const parentFamilies = `# HELP cfdserved_uptime_seconds Seconds since the server started.
# TYPE cfdserved_uptime_seconds gauge
# HELP cfdserved_sessions Hosted sessions.
# TYPE cfdserved_sessions gauge
# HELP cfdserved_passes_total Engine passes completed.
# TYPE cfdserved_passes_total counter
# HELP cfdserved_batches_total Client batches accepted.
# TYPE cfdserved_batches_total counter
# HELP cfdserved_coalesced_total Client batches merged into a shared engine pass.
# TYPE cfdserved_coalesced_total counter
# HELP cfdserved_rejected_total Async ingests refused with a full queue (backpressure 429).
# TYPE cfdserved_rejected_total counter
# HELP cfdserved_rate_limited_total Writes refused by a tenant quota (429/403).
# TYPE cfdserved_rate_limited_total counter
# HELP cfdserved_error_batches_total Batches Check refused, plus engine passes that failed.
# TYPE cfdserved_error_batches_total counter
# HELP cfdserved_tuples_total Tuples inserted.
# TYPE cfdserved_tuples_total counter
# HELP cfdserved_wal_bytes_total Bytes appended to WAL files, record headers included.
# TYPE cfdserved_wal_bytes_total counter
# HELP cfdserved_sse_dropped_total Events dropped at slow SSE subscribers.
# TYPE cfdserved_sse_dropped_total counter
# HELP cfdserved_ship_batches_total Batches acknowledged by this node's followers.
# TYPE cfdserved_ship_batches_total counter
# HELP cfdserved_ship_snapshots_total Snapshot installs shipped (bootstrap and resyncs).
# TYPE cfdserved_ship_snapshots_total counter
# HELP cfdserved_ship_degraded_total Replication delivery failures absorbed.
# TYPE cfdserved_ship_degraded_total counter
# HELP cfdserved_ship_dropped_total Replication frames dropped on a full backlog or backoff.
# TYPE cfdserved_ship_dropped_total counter
# HELP cfdserved_replica_applied_total Shipped batches applied on this node as a follower.
# TYPE cfdserved_replica_applied_total counter
# HELP cfdserved_dump_rows_total Rows streamed by finished CSV dumps.
# TYPE cfdserved_dump_rows_total counter
# HELP cfdserved_dump_bytes_total CSV bytes written by finished dumps.
# TYPE cfdserved_dump_bytes_total counter
# HELP cfdserved_dump_seconds_total Handler seconds spent in finished dumps.
# TYPE cfdserved_dump_seconds_total counter
# HELP cfdserved_dump_pages_cached_total Row pages finished dumps wrote from the CSV page cache.
# TYPE cfdserved_dump_pages_cached_total counter
# HELP cfdserved_dump_pages_encoded_total Row pages finished dumps encoded afresh.
# TYPE cfdserved_dump_pages_encoded_total counter
# HELP cfdserved_apply_bodies_total Apply and ingest request bodies read.
# TYPE cfdserved_apply_bodies_total counter
# HELP cfdserved_apply_bodies_stdlib_total Apply and ingest bodies the hand-written decoder declined and encoding/json decoded.
# TYPE cfdserved_apply_bodies_stdlib_total counter
# HELP cfdserved_apply_body_bytes_total Bytes of apply and ingest request bodies read.
# TYPE cfdserved_apply_body_bytes_total counter
# HELP cfdserved_apply_decode_seconds_total Seconds spent decoding apply and ingest bodies, either decoder.
# TYPE cfdserved_apply_decode_seconds_total counter
# HELP cfdserved_apply_reply_bytes_total Bytes of successful apply replies written.
# TYPE cfdserved_apply_reply_bytes_total counter
# HELP cfdserved_apply_encode_seconds_total Seconds spent building and writing successful apply replies.
# TYPE cfdserved_apply_encode_seconds_total counter
# HELP cfdserved_pass_duration_seconds Engine pass duration.
# TYPE cfdserved_pass_duration_seconds histogram
# HELP cfdserved_fsync_lag_seconds WAL append to fsync-acknowledged lag.
# TYPE cfdserved_fsync_lag_seconds histogram
# HELP cfdserved_fold_batches Client batches folded per engine pass.
# TYPE cfdserved_fold_batches histogram
# HELP cfdserved_session_queue_depth Work-queue occupancy per session.
# TYPE cfdserved_session_queue_depth gauge
# HELP cfdserved_session_queue_capacity Work-queue capacity per session.
# TYPE cfdserved_session_queue_capacity gauge
# HELP cfdserved_session_relation_size Tuples currently in the session's relation.
# TYPE cfdserved_session_relation_size gauge
# HELP cfdserved_session_persist_broken 1 when the session's persistence has failed and it refuses writes (read-only), else 0.
# TYPE cfdserved_session_persist_broken gauge
# HELP cfdserved_session_store_gen Committed page-store manifest generation per durable session.
# TYPE cfdserved_session_store_gen gauge
# HELP cfdserved_session_store_pages Committed pages in the session's page store.
# TYPE cfdserved_session_store_pages gauge
# HELP cfdserved_session_store_flush_pages Pages the session's last committed store flush wrote.
# TYPE cfdserved_session_store_flush_pages gauge
# HELP cfdserved_session_store_dict_entries Persisted intern-dictionary entries in the session's page store.
# TYPE cfdserved_session_store_dict_entries gauge
# HELP cfdserved_session_disk_bytes On-disk footprint of the durable session's directory: WAL generations and page store.
# TYPE cfdserved_session_disk_bytes gauge
# HELP cfdserved_session_pass_duration_seconds Engine pass duration per session.
# TYPE cfdserved_session_pass_duration_seconds histogram
# HELP cfdserved_session_fsync_lag_seconds WAL append to fsync-acknowledged lag per session.
# TYPE cfdserved_session_fsync_lag_seconds histogram
# HELP cfdserved_session_fold_batches Client batches folded per engine pass per session.
# TYPE cfdserved_session_fold_batches histogram
# HELP cfdserved_session_sse_dropped_total Events dropped at this session's slow SSE subscribers.
# TYPE cfdserved_session_sse_dropped_total counter
# HELP cfdserved_session_error_batches_total Batches Check refused, plus engine passes that failed, per session.
# TYPE cfdserved_session_error_batches_total counter
# HELP cfdserved_session_rate_limited_total Writes refused by this session's quota.
# TYPE cfdserved_session_rate_limited_total counter
# HELP cfdserved_session_nearest_queries_total Similarity queries the engine's passes made over an active domain, per session.
# TYPE cfdserved_session_nearest_queries_total counter
# HELP cfdserved_session_nearest_visited_total Active-domain values the similarity queries visited, per session.
# TYPE cfdserved_session_nearest_visited_total counter
# HELP cfdserved_session_nearest_measured_total Visited values the similarity queries measured with the DL kernel, per session.
# TYPE cfdserved_session_nearest_measured_total counter
# HELP cfdserved_session_resolve_rounds_total Greedy rounds TUPLERESOLVE ran over dirty arrivals, per session.
# TYPE cfdserved_session_resolve_rounds_total counter
# HELP cfdserved_session_resolve_free_pins_total TUPLERESOLVE rounds decided from the attribute masks alone, per session.
# TYPE cfdserved_session_resolve_free_pins_total counter
# HELP cfdserved_session_vio_probes_total TUPLERESOLVE's per-group vio(t) probes of the LHS indexes, per session.
# TYPE cfdserved_session_vio_probes_total counter
# HELP cfdserved_session_bucket_rescans_total LHS buckets the violation store recounted from their tallies, per session.
# TYPE cfdserved_session_bucket_rescans_total counter`

// getMetricsJSON fetches GET /v1/metrics as a generic JSON object.
func getMetricsJSON(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, body := do(t, "GET", base+"/v1/metrics", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("GET /v1/metrics: %d %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricFamiliesPinned holds the exposition's headers to the
// recorded list, on a node with no session (every family still has its
// headers) and on one hosting a durable session.
func TestMetricFamiliesPinned(t *testing.T) {
	for _, opts := range []Options{{}, {DataDir: t.TempDir()}} {
		_, ts := newTestService(t, opts)
		if opts.DataDir != "" {
			createTiny(t, ts.URL, "alpha")
		}
		_, body := do(t, "GET", ts.URL+"/metrics", nil)
		var headers []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "# ") {
				headers = append(headers, line)
			}
		}
		if got := strings.Join(headers, "\n"); got != parentFamilies {
			t.Fatalf("family headers moved (data dir %q):\ngot:\n%s\nwant:\n%s", opts.DataDir, got, parentFamilies)
		}
	}
}

// seriesKey names one series the same way in both renderings.
func seriesKey(name, session, le string) string {
	return name + "|" + session + "|" + le
}

// flattenMetricsJSON turns a /v1/metrics object into exposition series:
// a histogram object becomes its _count, _sum and _bucket series (the
// +Inf bucket being the count), and a per-session object one series per
// session.
func flattenMetricsJSON(m map[string]any) map[string]float64 {
	out := map[string]float64{}
	hist := func(name, session string, h map[string]any) {
		out[seriesKey(name+"_count", session, "")] = h["count"].(float64)
		out[seriesKey(name+"_sum", session, "")] = h["sum"].(float64)
		out[seriesKey(name+"_bucket", session, "+Inf")] = h["count"].(float64)
		for _, b := range h["buckets"].([]any) {
			b := b.(map[string]any)
			out[seriesKey(name+"_bucket", session, strconv.FormatFloat(b["le"].(float64), 'g', -1, 64))] = b["count"].(float64)
		}
	}
	for name, v := range m {
		obj, ok := v.(map[string]any)
		switch {
		case !ok:
			out[seriesKey(name, "", "")] = v.(float64)
		case obj["buckets"] != nil:
			hist(name, "", obj)
		default:
			for session, sv := range obj {
				if h, ok := sv.(map[string]any); ok {
					hist(name, session, h)
				} else {
					out[seriesKey(name, session, "")] = sv.(float64)
				}
			}
		}
	}
	return out
}

// TestMetricsRenderingsAgree: on a quiesced service, every series of
// GET /metrics has the same value under the same key in GET /v1/metrics
// and the JSON has no series the exposition lacks — uptime excepted, the
// one value that moves between two reads. It runs on a memory node and
// on a durable node (where the store gauges have series), each with a
// plain and a quoted session name.
func TestMetricsRenderingsAgree(t *testing.T) {
	const quoted = `q"uote`
	for _, opts := range []Options{{}, {DataDir: t.TempDir(), SnapshotEvery: 2}} {
		_, ts := newTestService(t, opts)
		createTiny(t, ts.URL, "alpha")
		createTiny(t, ts.URL, quoted)
		for i := 0; i < 3; i++ {
			applyOne(t, ts.URL, "alpha", "212", fmt.Sprintf("X%d", i))
		}
		applyOne(t, ts.URL, quoted, "212", "NYC")
		do(t, "GET", ts.URL+"/v1/sessions/alpha/dump", nil)

		_, body := do(t, "GET", ts.URL+"/metrics", nil)
		doc := parseProm(t, string(body))
		prom := map[string]float64{}
		for _, s := range doc.samples {
			le := s.labels["le"]
			if le != "" && le != "+Inf" {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatal(err)
				}
				le = strconv.FormatFloat(v, 'g', -1, 64)
			}
			prom[seriesKey(s.name, s.labels["session"], le)] = s.value
		}
		js := flattenMetricsJSON(getMetricsJSON(t, ts.URL))
		uptime := seriesKey("cfdserved_uptime_seconds", "", "")
		delete(prom, uptime)
		delete(js, uptime)
		for k, v := range prom {
			if jv, ok := js[k]; !ok || jv != v {
				t.Errorf("data dir %q: %s is %v in /metrics, %v (present %v) in /v1/metrics", opts.DataDir, k, v, jv, ok)
			}
		}
		for k := range js {
			if _, ok := prom[k]; !ok {
				t.Errorf("data dir %q: %s only in /v1/metrics", opts.DataDir, k)
			}
		}
		if js[seriesKey("cfdserved_passes_total", "", "")] != 4 || js[seriesKey("cfdserved_session_pass_duration_seconds_count", quoted, "")] != 1 {
			t.Errorf("data dir %q: the traffic is not in the counters", opts.DataDir)
		}
		_, durable := js[seriesKey("cfdserved_session_store_gen", quoted, "")]
		if durable != (opts.DataDir != "") {
			t.Errorf("data dir %q: store gauge series present = %v", opts.DataDir, durable)
		}
	}
}

// TestSessionDiskBytesGauge: cfdserved_session_disk_bytes is the whole
// session directory — WAL generations and page store —
// not the store alone: once a rotation has committed, it equals the sum
// of the directory's file sizes, which exceeds the store's share.
func TestSessionDiskBytesGauge(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestService(t, Options{DataDir: dir, SnapshotEvery: 2})
	createTiny(t, ts.URL, "alpha")
	for i := 0; i < 3; i++ {
		applyOne(t, ts.URL, "alpha", "212", fmt.Sprintf("X%d", i))
	}
	sum := func(dir string) (n float64) {
		filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, err := e.Info(); err == nil {
					n += float64(info.Size())
				}
			}
			return nil
		})
		return n
	}
	var gauge, files float64
	waitFor(t, "a rotation, and the gauge to equal the directory's bytes", func() bool {
		js := flattenMetricsJSON(getMetricsJSON(t, ts.URL))
		gauge, files = js[seriesKey("cfdserved_session_disk_bytes", "alpha", "")], sum(filepath.Join(dir, "alpha"))
		return js[seriesKey("cfdserved_session_store_gen", "alpha", "")] >= 1 && gauge == files
	})
	if store := sum(filepath.Join(dir, "alpha", storeDirName)); gauge <= store {
		t.Fatalf("the gauge reads %v bytes, the store alone holds %v", gauge, store)
	}
}

// TestWALBytesCounter: cfdserved_wal_bytes_total is every byte the
// committer appended to a WAL, record headers included — after five
// applies across a rotation, the two WAL files' sizes less their
// seven-byte file headers.
func TestWALBytesCounter(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestService(t, Options{DataDir: dir, SnapshotEvery: 3})
	createTiny(t, ts.URL, "alpha")
	for i := 0; i < 5; i++ {
		applyOne(t, ts.URL, "alpha", "212", fmt.Sprintf("X%d", i%2))
	}
	var want float64
	for gen := uint64(0); gen < 2; gen++ {
		info, err := os.Stat(walPath(filepath.Join(dir, "alpha"), gen))
		if err != nil {
			t.Fatal(err)
		}
		want += float64(info.Size() - int64(len("CFDWAL")+1))
	}
	if _, err := os.Stat(walPath(filepath.Join(dir, "alpha"), 2)); err == nil {
		t.Fatal("a second rotation ran")
	}
	js := flattenMetricsJSON(getMetricsJSON(t, ts.URL))
	if got := js[seriesKey("cfdserved_wal_bytes_total", "", "")]; got != want || got == 0 {
		t.Fatalf("cfdserved_wal_bytes_total reads %v, the WAL files hold %v record bytes", got, want)
	}
}

// TestReadmeFamiliesRegistered: every family README's Operations table
// names is one the service exports, so the table cannot drift from the
// list again.
func TestReadmeFamiliesRegistered(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "**Metrics.**")
	if !ok {
		t.Fatal("README has no Metrics section")
	}
	_, table, _ = strings.Cut(table, "```\n")
	table, _, _ = strings.Cut(table, "```")
	registered := map[string]bool{}
	for _, f := range New(Options{}).families {
		registered[f.name] = true
	}
	names := regexp.MustCompile(`cfdserved_[a-z_]+`).FindAllString(table, -1)
	if len(names) < 10 {
		t.Fatalf("README family table lists %d names", len(names))
	}
	var unknown []string
	for _, n := range names {
		if !registered[n] {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		t.Fatalf("README names families the service does not export: %v", unknown)
	}
}
