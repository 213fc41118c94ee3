package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cfdclean/internal/wal"
)

func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newTokenBucket(2) // burst 2, refill 2/s

	if ok, _ := b.take(2, t0); !ok {
		t.Fatal("full bucket must admit its burst")
	}
	ok, wait := b.take(1, t0)
	if ok {
		t.Fatal("empty bucket must reject")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v, want (0, 1s] for 1 token at 2/s", wait)
	}
	// After the advertised wait the same request must be admitted — the
	// Retry-After contract.
	if ok, _ := b.take(1, t0.Add(wait)); !ok {
		t.Fatal("bucket must admit after its own advertised wait")
	}

	// Refill caps at the burst: a long idle stretch is not a credit line.
	if ok, _ := b.take(2, t0.Add(time.Hour)); !ok {
		t.Fatal("bucket must be full after idling")
	}
	if ok, _ := b.take(1, t0.Add(time.Hour)); ok {
		t.Fatal("burst must cap accumulated tokens")
	}

	// A request beyond the burst is charged across future windows, not
	// rejected forever.
	big := newTokenBucket(1)
	if ok, _ := big.take(10, t0); !ok {
		t.Fatal("over-burst request must be admitted (and charged)")
	}
	if ok, wait := big.take(1, t0); ok || wait < 9*time.Second {
		t.Fatalf("deficit must carry: ok=%v wait=%v", ok, wait)
	}
	// A second over-burst request waits for a full bucket, however deep
	// the deficit the first left, and is admitted after that wait — also
	// at a rate whose wait is no whole number of nanoseconds.
	for _, rate := range []float64{100, 3} {
		tb := newTokenBucket(rate)
		n := rate + 1
		if ok, _ := tb.take(n, t0); !ok {
			t.Fatalf("rate %v: over-burst request into a full bucket must be admitted", rate)
		}
		ok, wait := tb.take(n, t0)
		if want := time.Duration((rate + 1) / rate * float64(time.Second)); ok || wait < want {
			t.Fatalf("rate %v: second over-burst take: ok=%v wait=%v, want refused until the bucket refills (%v)", rate, ok, wait, want)
		}
		if ok, _ := tb.take(n, t0.Add(wait)); !ok {
			t.Fatalf("rate %v: over-burst request must be admitted after its advertised wait %v", rate, wait)
		}
	}

	// refund restores tokens for a request that was not admitted.
	rb := newTokenBucket(4)
	rb.take(4, t0)
	rb.refund(1)
	if ok, _ := rb.take(1, t0); !ok {
		t.Fatal("refunded token must be spendable")
	}
}

// TestSessionQuota: a create request's quota is kept as sent, and a
// fully unlimited one lists as no quota.
func TestSessionQuota(t *testing.T) {
	if q, err := sessionQuota(nil); err != nil || q != (wal.Quota{}) {
		t.Fatalf("no quota: %+v, %v", q, err)
	}
	wq := &WireQuota{OpsPerSec: 5, MaxRelationSize: 1000}
	q, err := sessionQuota(wq)
	if want := (wal.Quota{OpsPerSec: 5, MaxRelationSize: 1000}); err != nil || q != want {
		t.Fatalf("quota = %+v, %v, want %+v", q, err, want)
	}
	if w := wireQuota(q); w == nil || *w != *wq {
		t.Fatalf("wire = %+v, want %+v", w, wq)
	}
	if wireQuota(wal.Quota{}) != nil {
		t.Fatal("fully unlimited quota must not serialize")
	}
}

// TestCreateRefusesNegativeQuota: a negative limit is not a way to say
// "unlimited" (zero is): the create is a 400 naming the field, and no
// session is hosted.
func TestCreateRefusesNegativeQuota(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for field, q := range map[string]*WireQuota{
		"ops_per_sec":       {OpsPerSec: -1},
		"tuples_per_sec":    {TuplesPerSec: -1},
		"max_relation_size": {MaxRelationSize: -1},
		"max_subscribers":   {MaxSubscribers: -1},
	} {
		resp, body := do(t, "POST", ts.URL+"/v1/sessions", CreateRequest{
			Name:   "neg",
			Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
			CFDs:   tinyCFDs,
			Quota:  q,
		})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "quota."+field) {
			t.Fatalf("negative %s: %d: %s", field, resp.StatusCode, body)
		}
	}
	if resp, _ := do(t, "GET", ts.URL+"/v1/sessions/neg", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused create hosted a session: %d", resp.StatusCode)
	}
}

// createWithQuota creates a session named name over the tiny schema
// with a per-session quota.
func createWithQuota(t *testing.T, base, name string, q *WireQuota) {
	t.Helper()
	resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
		Name:   name,
		Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
		CFDs:   tinyCFDs,
		Base:   []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
		Quota:  q,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
}

// TestQuotaOpsRateLimit exercises the ops token bucket end to end: the
// burst is admitted, the next write is 429 with both backoff headers,
// and the unquota'd session next door is untouched.
func TestQuotaOpsRateLimit(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createWithQuota(t, base, "limited", &WireQuota{OpsPerSec: 1})
	createTiny(t, base, "free")

	apply := func(name string) (*http.Response, []byte) {
		return do(t, "POST", base+"/v1/sessions/"+name+"/apply", ApplyRequest{
			Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
		})
	}
	if resp, body := apply("limited"); resp.StatusCode != http.StatusOK {
		t.Fatalf("burst apply: %d: %s", resp.StatusCode, body)
	}
	resp, body := apply("limited")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second apply: %d, want 429: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	ms, err := strconv.Atoi(resp.Header.Get("X-Retry-After-Ms"))
	if err != nil || ms < 1 || ms > ra*1000 {
		t.Fatalf("X-Retry-After-Ms = %q, want 1..%d", resp.Header.Get("X-Retry-After-Ms"), ra*1000)
	}

	// The other tenant's writes are unaffected by its neighbour's limit.
	for i := 0; i < 3; i++ {
		if resp, body := apply("free"); resp.StatusCode != http.StatusOK {
			t.Fatalf("free apply %d: %d: %s", i, resp.StatusCode, body)
		}
	}

	// The rejection is visible in the service counters, service-wide and
	// on the limited session only.
	mr := getMetricsJSON(t, base)
	if n := mr["cfdserved_rate_limited_total"]; n != 1.0 {
		t.Fatalf("cfdserved_rate_limited_total = %v, want 1", n)
	}
	perSession := mr["cfdserved_session_rate_limited_total"].(map[string]any)
	if perSession["limited"] != 1.0 || perSession["free"] != 0.0 {
		t.Fatalf("cfdserved_session_rate_limited_total = %v, want limited 1, free 0", perSession)
	}

	// And the effective quota is reported in the session listing.
	resp, body = do(t, "GET", base+"/v1/sessions/limited", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	var si SessionInfo
	if err := json.Unmarshal(body, &si); err != nil {
		t.Fatal(err)
	}
	if si.Quota == nil || si.Quota.OpsPerSec != 1 {
		t.Fatalf("session quota not reported: %s", body)
	}
}

// TestQuotaTuplesBackoffRecovers drives the full 429 contract on the
// ingest path: reject, wait exactly the advertised backoff, retry,
// succeed. The tuple rate is high so the advertised wait is a few
// milliseconds and the test stays fast.
func TestQuotaTuplesBackoffRecovers(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createWithQuota(t, base, "s", &WireQuota{TuplesPerSec: 1000})

	batch := func(n int) ApplyRequest {
		ar := ApplyRequest{}
		for i := 0; i < n; i++ {
			ar.Inserts = append(ar.Inserts, WireTuple{Vals: []*string{strp("212"), strp("NYC")}})
		}
		return ar
	}
	// Drain the burst (1000 tuples), then a 500-tuple ingest must be
	// rejected with a sub-second precise backoff: the bucket needs half
	// a second of refill before it fits, far more than any request
	// round trip (so the rejection is deterministic even under -race
	// slowdowns).
	if resp, body := do(t, "POST", base+"/v1/sessions/s/ingest", batch(1000)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("burst ingest: %d: %s", resp.StatusCode, body)
	}
	resp, body := do(t, "POST", base+"/v1/sessions/s/ingest", batch(500))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest: %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	ms, err := strconv.Atoi(resp.Header.Get("X-Retry-After-Ms"))
	if err != nil || ms < 1 {
		t.Fatalf("X-Retry-After-Ms = %q", resp.Header.Get("X-Retry-After-Ms"))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		resp, body = do(t, "POST", base+"/v1/sessions/s/ingest", batch(500))
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("retry after backoff: %d: %s", resp.StatusCode, body)
		}
		ms, _ = strconv.Atoi(resp.Header.Get("X-Retry-After-Ms"))
		if ms < 1 {
			ms = 1
		}
	}
}

// TestRelationSizeCap: a batch that would push the relation past its
// cap is 403, a same-size churn batch (delete + insert) passes, and the
// rejection does not consume rate tokens.
func TestRelationSizeCap(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createWithQuota(t, base, "s", &WireQuota{MaxRelationSize: 2})

	ins := ApplyRequest{Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}}}
	if resp, body := do(t, "POST", base+"/v1/sessions/s/apply", ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("apply to cap: %d: %s", resp.StatusCode, body)
	}
	resp, body := do(t, "POST", base+"/v1/sessions/s/apply", ins)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("over-cap apply: %d, want 403: %s", resp.StatusCode, body)
	}
	// Churn at the cap is fine: the batch's own deletes make room. The
	// base tuple has id 1.
	churn := ApplyRequest{
		Deletes: []int64{1},
		Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
	}
	if resp, body := do(t, "POST", base+"/v1/sessions/s/apply", churn); resp.StatusCode != http.StatusOK {
		t.Fatalf("churn at cap: %d: %s", resp.StatusCode, body)
	}
}

// TestSubscriberCap: the session's SSE consumer cap answers 409 to the
// subscriber past it, and a disconnect frees the slot.
func TestSubscriberCap(t *testing.T) {
	_, ts := newTestService(t, Options{})
	base := ts.URL
	createWithQuota(t, base, "s", &WireQuota{MaxSubscribers: 1})

	_, cancel := openSSE(t, base+"/v1/sessions/s/events", "")
	resp, err := http.Get(base + "/v1/sessions/s/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second subscriber: %d, want 409", resp.StatusCode)
	}
	cancel()
	// The slot frees asynchronously with the reader teardown.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/sessions/s/events")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQuotaRejectionCostsNothing: a batch the tuple bucket rejects must
// refund its ops token, so a rejected tenant is not double-charged.
func TestQuotaRejectionCostsNothing(t *testing.T) {
	q := newQuotaState(wal.Quota{OpsPerSec: 2, TuplesPerSec: 1})
	now := time.Unix(2000, 0)
	// First: 1 op + 1 tuple, admitted.
	if err := q.admit(0, 1, 0, now); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	// Second: tuple bucket empty → rejected; the ops token must come back.
	err := q.admit(0, 1, 0, now)
	rle := &RateLimitError{}
	if err == nil || !asRateLimit(err, &rle) || rle.What != "tuples" {
		t.Fatalf("want tuples rate limit, got %v", err)
	}
	// A tuple-free op must still be admitted on the refunded token: ops
	// had burst 2, spent 1+1, refunded 1 → 1 left.
	if err := q.admit(0, 0, 0, now); err != nil {
		t.Fatalf("refunded op: %v", err)
	}
}

func asRateLimit(err error, out **RateLimitError) bool {
	e, ok := err.(*RateLimitError)
	if ok {
		*out = e
	}
	return ok
}

// TestEffectiveLimitHeader: the violation listing's ?limit= clamp is
// not silent — X-Effective-Limit always reports the page size actually
// applied, clamped or not, so clients can tell a truncated page from an
// exhausted listing.
func TestEffectiveLimitHeader(t *testing.T) {
	_, ts := newTestService(t, Options{MaxReadLimit: 5})
	base := ts.URL
	createTiny(t, base, "s")

	for _, tc := range []struct {
		query string
		want  string
	}{
		{"", "5"},           // default page size (100) clamps to the cap
		{"?limit=3", "3"},   // under the cap: echoed as-is
		{"?limit=5", "5"},   // exactly the cap
		{"?limit=999", "5"}, // over the cap: clamped
	} {
		resp, body := do(t, "GET", base+"/v1/sessions/s/violations"+tc.query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("violations%s: %d: %s", tc.query, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Effective-Limit"); got != tc.want {
			t.Fatalf("violations%s: X-Effective-Limit = %q, want %q", tc.query, got, tc.want)
		}
	}
}

// TestRetryAfterSeconds pins the header rendering: ceil to whole
// seconds, at least 1.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want int
	}{
		{10 * time.Millisecond, 1},
		{time.Second, 1},
		{1100 * time.Millisecond, 2},
		{5 * time.Second, 5},
	} {
		e := &RateLimitError{What: "ops", RetryAfter: tc.wait}
		if got := e.retryAfterSeconds(); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.wait, got, tc.want)
		}
	}
	if s := (&RateLimitError{What: "ops", RetryAfter: time.Second}).Error(); s == "" {
		t.Fatal("error text must not be empty")
	}
	_ = fmt.Sprintf("%v", ErrRelationFull)
}

// TestQuotaSurvivesReboot: a session's quota is durable session state —
// it rides the snapshot header and comes back on recovery — and a
// session created without one still has none after the reboot.
func TestQuotaSurvivesReboot(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{DataDir: dir})
	ts1 := httptest.NewServer(s1.Handler())

	mk := func(name string, q *WireQuota) {
		resp, body := do(t, "POST", ts1.URL+"/v1/sessions", CreateRequest{
			Name:   name,
			Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
			CFDs:   tinyCFDs,
			Quota:  q,
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d: %s", name, resp.StatusCode, body)
		}
	}
	mk("capped", &WireQuota{OpsPerSec: 555, MaxSubscribers: 7})
	mk("plain", nil)
	shutdownService(t, s1, ts1)

	s2 := New(Options{DataDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer shutdownService(t, s2, ts2)
	if n, err := s2.Recover(); err != nil || n != 2 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}

	get := func(name string) SessionInfo {
		resp, body := do(t, "GET", ts2.URL+"/v1/sessions/"+name, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get %s: %d: %s", name, resp.StatusCode, body)
		}
		var si SessionInfo
		if err := json.Unmarshal(body, &si); err != nil {
			t.Fatal(err)
		}
		return si
	}
	capped := get("capped")
	if capped.Quota == nil || *capped.Quota != (WireQuota{OpsPerSec: 555, MaxSubscribers: 7}) {
		t.Fatalf("quota lost across reboot: %+v", capped.Quota)
	}
	if plain := get("plain"); plain.Quota != nil {
		t.Fatalf("a session created without a quota has one after reboot: %+v", plain.Quota)
	}
}
