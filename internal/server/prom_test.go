package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition series.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promDoc is a parsed exposition document: samples in document order
// plus the HELP/TYPE headers per family.
type promDoc struct {
	samples []promSample
	help    map[string]string
	types   map[string]string
}

// parseProm parses the Prometheus text exposition format (version
// 0.0.4) strictly enough to catch the mistakes that break real
// scrapers: malformed label quoting, missing HELP/TYPE, non-numeric
// values, and families split across the document.
func parseProm(t *testing.T, body string) *promDoc {
	t.Helper()
	doc := &promDoc{help: map[string]string{}, types: map[string]string{}}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			doc.help[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram" && typ != "summary" && typ != "untyped") {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			doc.types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		doc.samples = append(doc.samples, parsePromSample(t, ln+1, line))
	}
	return doc
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("line %d: no value: %q", ln, line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed label in %q", ln, line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			// Scan the quoted value honouring \\, \" and \n escapes.
			var val strings.Builder
			j := 0
			for {
				if j >= len(rest) {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := rest[j]
				if c == '"' {
					break
				}
				if c == '\\' {
					if j+1 >= len(rest) {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch rest[j+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c in %q", ln, rest[j+1], line)
					}
					j += 2
					continue
				}
				val.WriteByte(c)
				j++
			}
			s.labels[key] = val.String()
			rest = rest[j+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if !strings.HasPrefix(rest, "}") {
				t.Fatalf("line %d: malformed label list in %q", ln, line)
			}
			rest = rest[1:]
			break
		}
	}
	if !strings.HasPrefix(rest, " ") {
		t.Fatalf("line %d: missing space before value in %q", ln, line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("line %d: bad value in %q: %v", ln, line, err)
	}
	s.value = v
	return s
}

// family maps a series name to its metric family (histogram series
// carry _bucket/_sum/_count suffixes).
func (d *promDoc) family(sample string) string {
	if _, ok := d.types[sample]; ok {
		return sample
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if d.types[base] == "histogram" {
				return base
			}
		}
	}
	return sample
}

// get returns the unique sample with the given name and label
// restrictions (alternating key, value).
func (d *promDoc) get(t *testing.T, name string, kv ...string) promSample {
	t.Helper()
	var found []promSample
	for _, s := range d.samples {
		if s.name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				match = false
			}
		}
		if match {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d samples for %s%v, want exactly 1", len(found), name, kv)
	}
	return found[0]
}

// checkHistogram asserts Prometheus histogram semantics for one series
// set: buckets are cumulative (monotone non-decreasing in le order),
// the last bucket is +Inf, and its count equals the _count series.
func (d *promDoc) checkHistogram(t *testing.T, name string, kv ...string) (count float64) {
	t.Helper()
	var les []float64
	var counts []float64
	for _, s := range d.samples {
		if s.name != name+"_bucket" {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				match = false
			}
		}
		if !match {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if s.labels["le"] == "+Inf" {
			le, err = math.Inf(1), nil
		}
		if err != nil {
			t.Fatalf("%s: bad le label %q", name, s.labels["le"])
		}
		les = append(les, le)
		counts = append(counts, s.value)
	}
	if len(les) < 2 {
		t.Fatalf("%s%v: only %d buckets", name, kv, len(les))
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] {
			t.Fatalf("%s: le bounds not ascending: %v", name, les)
		}
		if counts[i] < counts[i-1] {
			t.Fatalf("%s: buckets not cumulative: %v", name, counts)
		}
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("%s: last bucket is %g, want +Inf", name, les[len(les)-1])
	}
	cnt := d.get(t, name+"_count", kv...)
	if counts[len(counts)-1] != cnt.value {
		t.Fatalf("%s: +Inf bucket %g != _count %g", name, counts[len(counts)-1], cnt.value)
	}
	d.get(t, name+"_sum", kv...) // must exist and be unique
	return cnt.value
}

// TestPrometheusExposition is the acceptance test for GET /metrics: the
// document parses as exposition format 0.0.4, every family has HELP and
// TYPE and is written consecutively, histograms are cumulative with an
// +Inf bucket equal to _count, per-session series carry session labels
// (escaped — session names may legally contain double quotes), and the
// counters agree with the traffic the test just generated.
func TestPrometheusExposition(t *testing.T) {
	srv, ts := newTestService(t, Options{})
	base := ts.URL
	const quoted = `q"uote` // legal name; breaks naive label rendering
	createTiny(t, base, "alpha")
	createTiny(t, base, quoted)
	replyBytes := 0
	for i := 0; i < 3; i++ {
		resp, body := do(t, "POST", base+"/v1/sessions/alpha/apply", ApplyRequest{
			Inserts: []WireTuple{{Vals: []*string{strp("212"), strp(fmt.Sprintf("X%d", i))}}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("apply: %d: %s", resp.StatusCode, body)
		}
		if _, err := strconv.ParseUint(resp.Header.Get("X-Stage-Decode-Us"), 10, 64); err != nil {
			t.Fatalf("X-Stage-Decode-Us: %v", err)
		}
		replyBytes += len(body)
	}
	// A fourth body, outside the hand-written decoder's subset (a key in
	// upper case), and one no decoder accepts.
	applyBytes := 3 * len(mustJSON(t, ApplyRequest{Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("X0")}}}}))
	for _, raw := range []string{`{"DELETES":[]}`, `{"deletes":[}`} {
		if status, reply := postRaw(t, base+"/v1/sessions/alpha/apply", []byte(raw)); status == http.StatusOK {
			replyBytes += len(reply) // the empty batch is applied
		}
		applyBytes += len(raw)
	}

	_, dump := do(t, "GET", base+"/v1/sessions/alpha/dump", nil)

	resp, body := do(t, "GET", base+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("content type %q, want %q", ct, promContentType)
	}
	doc := parseProm(t, string(body))

	// Every sample's family must carry HELP and TYPE, and all of a
	// family's samples must be consecutive in the document.
	seen := map[string]bool{}
	prev := ""
	for _, s := range doc.samples {
		fam := doc.family(s.name)
		if doc.help[fam] == "" || doc.types[fam] == "" {
			t.Fatalf("family %s (sample %s) missing HELP or TYPE", fam, s.name)
		}
		if fam != prev && seen[fam] {
			t.Fatalf("family %s is split across the document", fam)
		}
		seen[fam] = true
		prev = fam
	}

	// Service-wide counters reflect the three applies.
	if v := doc.get(t, "cfdserved_passes_total").value; v < 3 {
		t.Fatalf("passes_total = %g, want >= 3", v)
	}
	if v := doc.get(t, "cfdserved_sessions").value; v != 2 {
		t.Fatalf("sessions = %g, want 2", v)
	}
	for _, c := range []string{
		"cfdserved_batches_total", "cfdserved_coalesced_total", "cfdserved_rejected_total",
		"cfdserved_rate_limited_total", "cfdserved_error_batches_total",
		"cfdserved_tuples_total", "cfdserved_sse_dropped_total",
		// The replication counters /v1/metrics reports: present (at zero)
		// on a single node too, so dashboards need no per-topology shape.
		"cfdserved_ship_batches_total", "cfdserved_ship_snapshots_total",
		"cfdserved_ship_degraded_total", "cfdserved_ship_dropped_total",
		"cfdserved_replica_applied_total",
	} {
		if doc.types[c] != "counter" {
			t.Fatalf("%s: type %q, want counter", c, doc.types[c])
		}
		doc.get(t, c)
	}
	// The one dump of alpha: its four rows, its bytes, and some time.
	rows := doc.get(t, "cfdserved_dump_rows_total").value
	size := doc.get(t, "cfdserved_dump_bytes_total").value
	secs := doc.get(t, "cfdserved_dump_seconds_total").value
	if rows != 4 || size != float64(len(dump)) || secs <= 0 || doc.types["cfdserved_dump_seconds_total"] != "counter" {
		t.Fatalf("dump counters: %g rows, %g bytes, %g s; want 4 rows, %d bytes, > 0 s", rows, size, secs, len(dump))
	}
	// The five apply bodies: two went to encoding/json, all were timed.
	bodies := doc.get(t, "cfdserved_apply_bodies_total").value
	declined := doc.get(t, "cfdserved_apply_bodies_stdlib_total").value
	size = doc.get(t, "cfdserved_apply_body_bytes_total").value
	secs = doc.get(t, "cfdserved_apply_decode_seconds_total").value
	if bodies != 5 || declined != 2 || size != float64(applyBytes) || secs <= 0 || doc.types["cfdserved_apply_decode_seconds_total"] != "counter" {
		t.Fatalf("apply body counters: %g bodies, %g to the stdlib, %g bytes, %g s; want 5, 2, %d, > 0", bodies, declined, size, secs, applyBytes)
	}
	// The 200 replies, byte for byte; the 400 is not counted.
	size = doc.get(t, "cfdserved_apply_reply_bytes_total").value
	secs = doc.get(t, "cfdserved_apply_encode_seconds_total").value
	if size != float64(replyBytes) || secs <= 0 || doc.types["cfdserved_apply_reply_bytes_total"] != "counter" || doc.types["cfdserved_apply_encode_seconds_total"] != "counter" {
		t.Fatalf("apply reply counters: %g bytes, %g s; want %d, > 0", size, secs, replyBytes)
	}
	if doc.get(t, "cfdserved_uptime_seconds").value < 0 {
		t.Fatal("uptime must be non-negative")
	}

	// Registry-wide histograms: cumulative, +Inf-terminated, count
	// matches the traffic.
	if n := doc.checkHistogram(t, "cfdserved_pass_duration_seconds"); n < 3 {
		t.Fatalf("pass_duration count = %g, want >= 3", n)
	}
	doc.checkHistogram(t, "cfdserved_fold_batches")
	// No durable sessions here, so the fsync histogram is present but
	// empty — the all-zero layout scrapers expect, not an absent family.
	if n := doc.checkHistogram(t, "cfdserved_fsync_lag_seconds"); n != 0 {
		t.Fatalf("fsync_lag count = %g, want 0 in-memory", n)
	}

	// Per-session series exist for both sessions — including the one
	// whose name needs label escaping — and the gauges carry sane values.
	for _, name := range []string{"alpha", quoted} {
		if v := doc.get(t, "cfdserved_session_queue_depth", "session", name).value; v < 0 {
			t.Fatalf("queue depth %g", v)
		}
		if v := doc.get(t, "cfdserved_session_queue_capacity", "session", name).value; v < 1 {
			t.Fatalf("queue capacity %g", v)
		}
		doc.checkHistogram(t, "cfdserved_session_pass_duration_seconds", "session", name)
		doc.checkHistogram(t, "cfdserved_session_fold_batches", "session", name)
		doc.get(t, "cfdserved_session_sse_dropped_total", "session", name)
		doc.get(t, "cfdserved_session_error_batches_total", "session", name)
		doc.get(t, "cfdserved_session_rate_limited_total", "session", name)
	}
	// The applies ran on alpha only; its per-session histogram saw all
	// three passes, the quoted session none.
	if n := doc.checkHistogram(t, "cfdserved_session_pass_duration_seconds", "session", "alpha"); n < 3 {
		t.Fatalf("alpha pass count = %g, want >= 3", n)
	}
	if n := doc.checkHistogram(t, "cfdserved_session_pass_duration_seconds", "session", quoted); n != 0 {
		t.Fatalf("quoted-session pass count = %g, want 0", n)
	}
	if v := doc.get(t, "cfdserved_session_relation_size", "session", "alpha").value; v != 4 {
		t.Fatalf("alpha relation size = %g, want 4 (base + 3 inserts)", v)
	}
	// The engine counters are the session's own IndexStats, which the
	// worker adds pass by pass: alpha's dirty arrivals asked queries and
	// ran rounds, the quoted session none.
	h, err := srv.reg.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ix := h.sess.IndexStats()
	if ix.Nearest == 0 || ix.Measured > ix.Visited || ix.Rounds == 0 || ix.FreePins > ix.Rounds {
		t.Fatalf("alpha's index counters %+v: want some queries and rounds, measured ≤ visited, free pins ≤ rounds", ix)
	}
	for _, c := range []struct {
		name string
		want int
	}{
		{"cfdserved_session_nearest_queries_total", ix.Nearest},
		{"cfdserved_session_nearest_visited_total", ix.Visited},
		{"cfdserved_session_nearest_measured_total", ix.Measured},
		{"cfdserved_session_resolve_rounds_total", ix.Rounds},
		{"cfdserved_session_resolve_free_pins_total", ix.FreePins},
		{"cfdserved_session_vio_probes_total", ix.VioProbes},
		{"cfdserved_session_bucket_rescans_total", ix.BucketRescans},
	} {
		if doc.types[c.name] != "counter" {
			t.Fatalf("%s: type %q, want counter", c.name, doc.types[c.name])
		}
		if v := doc.get(t, c.name, "session", "alpha").value; v != float64(c.want) {
			t.Fatalf("%s{alpha} = %g, the session counted %d", c.name, v, c.want)
		}
		if v := doc.get(t, c.name, "session", quoted).value; v != 0 {
			t.Fatalf("%s{quoted} = %g, want 0", c.name, v)
		}
	}

	// The raw document must contain the escaped form of the quoted name.
	if !strings.Contains(string(body), `session="q\"uote"`) {
		t.Fatal("quoted session name not escaped in exposition output")
	}
}

// TestPromEscapeLabel pins the three mandated escapes.
func TestPromEscapeLabel(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := escapeLabel(in); got != want {
		t.Fatalf("escapeLabel(%q) = %q, want %q", in, got, want)
	}
}
