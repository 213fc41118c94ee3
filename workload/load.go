package workload

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	neturl "net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/gen"
	"cfdclean/internal/relation"
	"cfdclean/internal/server"
)

// The service load driver: measures what a cfdserved instance sustains
// under N concurrent streaming sessions. Each session gets its own
// generated order dataset (distinct seed), is created over the clean
// base, and then receives its dirty tuples as synchronous /apply batches
// from a dedicated client goroutine; the driver records per-request
// latency client-side and reports sustained batches/sec and tuple
// throughput with p50/p99/max latency over the whole run. With
// LoadConfig.BaseURL empty the driver spins up an in-process server on a
// loopback listener, so the numbers include the full HTTP round trip but
// no network.
//
// ReadFrac mixes streaming reads into the workload: each session's
// client interleaves CSV dumps and cursor-paginated violation walks
// with its writes so that reads make up the requested fraction of
// operations. The read side is reported separately (rows/s streamed,
// pages fetched, client-observed pinned-view lifetimes) and the write
// percentiles in the same row show what the reads cost the writer.

// LoadConfig parameterizes one load measurement.
type LoadConfig struct {
	// Sessions is the number of concurrent sessions (and client
	// goroutines). Default 1.
	Sessions int
	// Batches is the number of ΔD batches streamed per session; the
	// session's dirty tuples are spread evenly across them. Default 8.
	Batches int
	// BaseSize is the clean base database size per session. Default 800.
	BaseSize int
	// NoiseRate is the generator's perturbation rate; together with
	// BaseSize it determines total streamed tuples. Default 0.08.
	NoiseRate float64
	// Seed seeds the generator; session i uses Seed+i. Default 1.
	Seed int64
	// Workers bounds the initial violation scan of each session's base.
	// Default 1 (sessions are already concurrent with each other).
	Workers int
	// QueueDepth configures the in-process server. Default 32.
	QueueDepth int
	// BaseURL targets a running service ("http://host:port"); empty
	// starts an in-process server on a loopback listener.
	BaseURL string
	// DataDir, when non-empty, makes the in-process server durable
	// (WAL + snapshots under this directory), so the measurement
	// includes the full persistence path. Ignored with BaseURL set.
	DataDir string
	// Fsync is the durable server's WAL sync policy: "batch" (default),
	// "interval" or "off". Only meaningful with DataDir.
	Fsync string
	// ReadFrac is the fraction of client operations that are streaming
	// reads (alternating CSV dumps and paginated violation walks),
	// interleaved with each session's writes. 0 (the default) measures a
	// pure write workload; must be below 1 — some writes have to drive
	// the sessions forward.
	ReadFrac float64

	// SLOMaxP99ms, when > 0, turns the run into an SLO assertion: the
	// result carries an SLOReport and Pass is false when the measured
	// write p99 exceeds this bound or the error rate exceeds
	// SLOMaxErrorRate. The loadtest command exits non-zero on breach.
	SLOMaxP99ms float64
	// SLOMaxErrorRate is the error-batch fraction tolerated by the SLO
	// gate (errors / attempted batches). 0 — the default — means any
	// failed batch breaches.
	SLOMaxErrorRate float64

	// QuotaOps, when > 0, creates session 0 with this ops/sec quota
	// (server.WireQuota override) while the other sessions stay
	// unlimited: the limited tenant's clients see 429s and back off per
	// Retry-After, and the run demonstrates the others' latency holding
	// the SLO. Rate-limited rejections are retried, tallied in
	// LoadResult.RateLimited, and never counted as error batches.
	QuotaOps float64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Fsync == "" {
		c.Fsync = "batch"
	}
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.Batches <= 0 {
		c.Batches = 8
	}
	if c.BaseSize <= 0 {
		c.BaseSize = 800
	}
	if c.NoiseRate <= 0 {
		c.NoiseRate = 0.08
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	return c
}

// LoadResult reports one load measurement; all latencies are
// milliseconds of client-observed /apply round trips. ErrorBatches
// counts apply calls that failed (transport error, non-200 status, or a
// response that left violations) — they are excluded from the latency
// sample and the throughput numerator but no longer abort the run
// silently. Durable reports whether the measured server persisted every
// batch (DataDir set).
type LoadResult struct {
	Sessions     int     `json:"sessions"`
	Batches      int     `json:"batches_per_session"`
	MeanBatch    float64 `json:"mean_batch_tuples"`
	BaseSize     int     `json:"base_size"`
	Gomaxprocs   int     `json:"gomaxprocs"`
	Durable      bool    `json:"durable"`
	Fsync        string  `json:"fsync,omitempty"`
	TotalBatches int     `json:"total_batches"`
	TotalTuples  int     `json:"total_tuples"`
	ErrorBatches int     `json:"error_batches"`
	// RateLimited counts 429 rate-limit rejections the clients absorbed
	// by backing off per Retry-After and retrying; the retried batches
	// still land, so these are not errors.
	RateLimited   int     `json:"rate_limited,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
	BatchesPerSec float64 `json:"batches_per_sec"`
	TuplesPerSec  float64 `json:"tuples_per_sec"`
	P50ms         float64 `json:"p50_ms"`
	P99ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	// Stages breaks the server-side life of a batch into pipeline stages
	// (from the X-Stage-* response headers): queue wait, engine pass, and
	// persist (WAL append + fsync + ack). Client round-trip minus the
	// stage sum is HTTP/codec overhead.
	Stages *StageLatencies `json:"stages,omitempty"`
	// Reads summarizes the read side of a mixed workload (ReadFrac > 0):
	// absent on pure write runs.
	Reads *ReadStats `json:"reads,omitempty"`
	// SLO is the assertion verdict, present when SLOMaxP99ms was set.
	SLO *SLOReport `json:"slo,omitempty"`
}

// SLOReport is the verdict of an SLO-gated run: the targets it was held
// to, the measured error rate, and the list of breached assertions
// (empty when Pass).
type SLOReport struct {
	TargetP99ms  float64  `json:"target_p99_ms"`
	MaxErrorRate float64  `json:"max_error_rate"`
	ErrorRate    float64  `json:"error_rate"`
	Pass         bool     `json:"pass"`
	Breaches     []string `json:"breaches,omitempty"`
}

// ReadStats summarizes the streaming reads of a mixed workload run.
// DumpLatency is the client-observed life of one dump — request to last
// byte — which brackets the server-side pinned-view lifetime: the view
// is pinned before the first byte and released when the stream ends.
// PageLatency is the round trip of one violation page.
type ReadStats struct {
	ReadFrac     float64             `json:"read_frac"`
	Dumps        int                 `json:"dumps"`
	Pages        int                 `json:"violation_pages"`
	RowsStreamed int                 `json:"rows_streamed"`
	RowsPerSec   float64             `json:"rows_per_sec"`
	ErrorReads   int                 `json:"error_reads"`
	DumpLatency  *server.WireLatency `json:"dump_latency,omitempty"`
	PageLatency  *server.WireLatency `json:"page_latency,omitempty"`
}

// StageLatencies summarizes per-stage server-side timings across every
// successful batch of a run (same nearest-rank definition as the
// overall latency numbers).
type StageLatencies struct {
	Queue   *server.WireLatency `json:"queue,omitempty"`
	Engine  *server.WireLatency `json:"engine,omitempty"`
	Persist *server.WireLatency `json:"persist,omitempty"`
}

// RunLoad performs one measurement: create cfg.Sessions sessions, stream
// every session's batches concurrently, verify each response reports a
// Σ-satisfying state, tear the sessions down, and summarize. A batch
// whose apply fails (or leaves violations) is counted in
// LoadResult.ErrorBatches and excluded from the latency/throughput
// sample; RunLoad itself errors only when setup fails or no batch at
// all succeeds.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.ReadFrac < 0 {
		cfg.ReadFrac = 0
	}
	if cfg.ReadFrac >= 1 {
		return nil, fmt.Errorf("workload: ReadFrac %g must be below 1 (writes drive the sessions)", cfg.ReadFrac)
	}

	base := cfg.BaseURL
	if base == "" {
		sopts := server.Options{QueueDepth: cfg.QueueDepth}
		if cfg.DataDir != "" {
			policy, err := server.ParseFsyncPolicy(cfg.Fsync)
			if err != nil {
				return nil, err
			}
			sopts.DataDir = cfg.DataDir
			sopts.Fsync = policy
		}
		srv := server.New(sopts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			hs.Shutdown(ctx)
		}()
		base = "http://" + ln.Addr().String()
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	// Prepare every session's dataset and batches before the clock
	// starts; creation (base scan + store build) stays outside the
	// measured window, which times steady-state batch traffic only.
	type sessionLoad struct {
		name    string
		batches [][]server.WireTuple
	}
	loads := make([]sessionLoad, cfg.Sessions)
	for i := range loads {
		ds, err := gen.New(gen.Config{
			Size:      cfg.BaseSize,
			NoiseRate: cfg.NoiseRate,
			Seed:      cfg.Seed + int64(i),
			Weights:   true,
		})
		if err != nil {
			return nil, err
		}
		deltas, _ := ds.StreamBatches(cfg.Batches)
		name := fmt.Sprintf("load-%d", i)
		sl := sessionLoad{name: name}
		for _, delta := range deltas {
			wb := make([]server.WireTuple, len(delta))
			for j, t := range delta {
				wt := server.EncodeTuple(t)
				wt.ID = 0 // let the session assign arrival-order ids
				wb[j] = wt
			}
			sl.batches = append(sl.batches, wb)
		}
		loads[i] = sl

		var csvBuf, cfdBuf bytes.Buffer
		if err := relation.WriteCSV(ds.Opt, &csvBuf); err != nil {
			return nil, err
		}
		if err := cfd.Format(&cfdBuf, ds.CFDs); err != nil {
			return nil, err
		}
		cr := server.CreateRequest{
			Name:    name,
			CFDs:    cfdBuf.String(),
			BaseCSV: csvBuf.String(),
			Options: &server.WireOptions{Ordering: "linear", Workers: cfg.Workers},
		}
		if cfg.QuotaOps > 0 && i == 0 {
			// One deliberately throttled tenant; the rest stay unlimited so
			// the run shows their latency unaffected by its backoff.
			cr.Quota = &server.WireQuota{OpsPerSec: cfg.QuotaOps}
		}
		if _, err := postJSON(client, base+"/v1/sessions", cr, http.StatusCreated, nil); err != nil {
			return nil, fmt.Errorf("creating %s: %w", name, err)
		}
	}

	// Stream all sessions concurrently; one goroutine per session keeps
	// per-session ordering (the API contract) while sessions contend for
	// the service like independent tenants. A failed apply is counted
	// and the session moves on to its next batch — per-batch errors are
	// part of the report, not a silent abort.
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		lats        []time.Duration
		stageLats   [3][]time.Duration // queue, engine, persist
		okTuples    int
		errCount    int
		rateLimited int
		firstErr    error
		okBatches   int
		reads       readTally
	)
	stageHeaders := [3]string{"X-Stage-Queue-Us", "X-Stage-Engine-Us", "X-Stage-Persist-Us"}
	// readRatio turns ReadFrac (fraction of all operations) into reads
	// issued per write, accumulated as fractional credit so any fraction
	// mixes evenly across the run.
	readRatio := cfg.ReadFrac / (1 - cfg.ReadFrac)
	start := time.Now()
	for i := range loads {
		wg.Add(1)
		go func(sl sessionLoad) {
			defer wg.Done()
			var local []time.Duration
			var localStages [3][]time.Duration
			var localReads readTally
			localTuples, localErrs, localLimited := 0, 0, 0
			readCredit, readTurn := 0.0, 0
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			for _, wb := range sl.batches {
				var resp server.ApplyResponse
				// d is the accepted attempt's round trip: rate-limit backoff
				// is the throttled tenant's own waiting, not service
				// latency, so it stays out of the percentile sample.
				hdr, retries, d, err := applyWithBackoff(client, base+"/v1/sessions/"+sl.name+"/apply",
					server.ApplyRequest{Inserts: wb}, &resp)
				localLimited += retries
				if err == nil && !resp.Snapshot.Satisfied {
					err = fmt.Errorf("session %s: batch left violations", sl.name)
				}
				if err != nil {
					localErrs++
					fail(err)
					continue
				}
				local = append(local, d)
				localTuples += len(wb)
				for si, name := range stageHeaders {
					if us, perr := strconv.ParseInt(hdr.Get(name), 10, 64); perr == nil {
						localStages[si] = append(localStages[si], time.Duration(us)*time.Microsecond)
					}
				}
				// Interleave the read share: alternating streamed dumps
				// and paginated violation walks against the same session
				// the writes are advancing.
				for readCredit += readRatio; readCredit >= 1; readCredit-- {
					if err := localReads.one(client, base, sl.name, readTurn); err != nil {
						fail(err)
					}
					readTurn++
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			for si := range localStages {
				stageLats[si] = append(stageLats[si], localStages[si]...)
			}
			okTuples += localTuples
			okBatches += len(local)
			errCount += localErrs
			rateLimited += localLimited
			reads.merge(&localReads)
			mu.Unlock()
		}(loads[i])
	}
	wg.Wait()
	wall := time.Since(start)
	if okBatches == 0 && firstErr != nil {
		// Nothing succeeded: the summary would be all zeros, so surface
		// the underlying failure instead.
		return nil, firstErr
	}

	for _, sl := range loads {
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+sl.name, nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	total := len(lats)
	res := &LoadResult{
		Sessions:      cfg.Sessions,
		Batches:       cfg.Batches,
		BaseSize:      cfg.BaseSize,
		Gomaxprocs:    runtime.GOMAXPROCS(0),
		Durable:       cfg.BaseURL == "" && cfg.DataDir != "",
		TotalBatches:  total,
		TotalTuples:   okTuples,
		ErrorBatches:  errCount,
		RateLimited:   rateLimited,
		WallSeconds:   wall.Seconds(),
		BatchesPerSec: float64(total) / wall.Seconds(),
		TuplesPerSec:  float64(okTuples) / wall.Seconds(),
	}
	if res.Durable {
		res.Fsync = cfg.Fsync
	}
	// Same nearest-rank definition as the service's /v1/metrics.
	if sum := server.LatencySummary(lats); sum != nil {
		res.MeanBatch = float64(okTuples) / float64(total)
		res.P50ms = sum.P50ms
		res.P99ms = sum.P99ms
		res.MaxMs = sum.Maxms
	}
	if q, e, p := server.LatencySummary(stageLats[0]), server.LatencySummary(stageLats[1]), server.LatencySummary(stageLats[2]); q != nil || e != nil || p != nil {
		res.Stages = &StageLatencies{Queue: q, Engine: e, Persist: p}
	}
	if cfg.ReadFrac > 0 {
		res.Reads = &ReadStats{
			ReadFrac:     cfg.ReadFrac,
			Dumps:        reads.dumps,
			Pages:        reads.pages,
			RowsStreamed: reads.rows,
			RowsPerSec:   float64(reads.rows) / wall.Seconds(),
			ErrorReads:   reads.errs,
			DumpLatency:  server.LatencySummary(reads.dumpLats),
			PageLatency:  server.LatencySummary(reads.pageLats),
		}
	}
	if cfg.SLOMaxP99ms > 0 {
		res.SLO = evaluateSLO(cfg, res)
	}
	return res, nil
}

// evaluateSLO holds a finished run against its targets: write p99 at or
// under the bound, error-batch rate (errors over attempted batches) at
// or under the tolerance. Every breach is spelled out so a failing CI
// log says what broke, not just that something did.
func evaluateSLO(cfg LoadConfig, res *LoadResult) *SLOReport {
	rep := &SLOReport{TargetP99ms: cfg.SLOMaxP99ms, MaxErrorRate: cfg.SLOMaxErrorRate}
	if attempted := res.TotalBatches + res.ErrorBatches; attempted > 0 {
		rep.ErrorRate = float64(res.ErrorBatches) / float64(attempted)
	}
	if res.TotalBatches == 0 {
		rep.Breaches = append(rep.Breaches, "no batch succeeded")
	}
	if res.P99ms > rep.TargetP99ms {
		rep.Breaches = append(rep.Breaches,
			fmt.Sprintf("write p99 %.1fms exceeds target %.1fms", res.P99ms, rep.TargetP99ms))
	}
	if rep.ErrorRate > rep.MaxErrorRate {
		rep.Breaches = append(rep.Breaches,
			fmt.Sprintf("error rate %.4f (%d/%d batches) exceeds %.4f",
				rep.ErrorRate, res.ErrorBatches, res.TotalBatches+res.ErrorBatches, rep.MaxErrorRate))
	}
	rep.Pass = len(rep.Breaches) == 0
	return rep
}

// applyWithBackoff posts one apply batch, absorbing 429 rate-limit
// rejections by waiting out the server's advertised backoff —
// X-Retry-After-Ms when present (precise), Retry-After seconds
// otherwise — and retrying. retries reports how many 429s were
// absorbed; d is the accepted attempt's round trip alone, excluding
// rejected attempts and the sleeps between them. The retry budget is
// generous but bounded: a session whose quota can never admit the
// batch surfaces the 429 as an error instead of spinning forever.
func applyWithBackoff(client *http.Client, url string, ar server.ApplyRequest, out *server.ApplyResponse) (hdr http.Header, retries int, d time.Duration, err error) {
	const maxRetries = 100
	for {
		t0 := time.Now()
		hdr, status, err := postJSONStatus(client, url, ar, out)
		d = time.Since(t0)
		if err == nil && status == http.StatusOK {
			return hdr, retries, d, nil
		}
		if status != http.StatusTooManyRequests || retries >= maxRetries {
			return hdr, retries, d, err
		}
		retries++
		wait := 50 * time.Millisecond
		if ms, perr := strconv.ParseInt(hdr.Get("X-Retry-After-Ms"), 10, 64); perr == nil && ms > 0 {
			wait = time.Duration(ms) * time.Millisecond
		} else if sec, perr := strconv.Atoi(hdr.Get("Retry-After")); perr == nil && sec > 0 {
			wait = time.Duration(sec) * time.Second
		}
		time.Sleep(wait)
	}
}

// readTally accumulates one goroutine's (and then the run's) read-side
// observations.
type readTally struct {
	dumps, pages, rows, errs int
	dumpLats, pageLats       []time.Duration
}

func (r *readTally) merge(o *readTally) {
	r.dumps += o.dumps
	r.pages += o.pages
	r.rows += o.rows
	r.errs += o.errs
	r.dumpLats = append(r.dumpLats, o.dumpLats...)
	r.pageLats = append(r.pageLats, o.pageLats...)
}

// one performs a single read operation against a session, alternating
// by turn between a streamed CSV dump and a full cursor-paginated
// violation walk. Failed reads are tallied and returned (the caller
// records the first error) but never stop the workload.
func (r *readTally) one(client *http.Client, base, name string, turn int) error {
	if turn%2 == 0 {
		t0 := time.Now()
		rows, err := streamDump(client, base+"/v1/sessions/"+name+"/dump")
		if err != nil {
			r.errs++
			return fmt.Errorf("session %s: %w", name, err)
		}
		r.dumpLats = append(r.dumpLats, time.Since(t0))
		r.dumps++
		r.rows += rows
		return nil
	}
	pages, err := r.walkViolations(client, base, name)
	r.pages += pages
	if err != nil {
		r.errs++
		return fmt.Errorf("session %s: %w", name, err)
	}
	return nil
}

// streamDump fetches one CSV dump line by line — client-side buffering
// stays O(line), matching the server's O(page) — counting data rows and
// requiring the completion trailer that distinguishes a finished export
// from a truncated one.
func streamDump(client *http.Client, url string) (rows int, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if resp.Trailer.Get("X-Dump-Complete") != "true" {
		return 0, fmt.Errorf("GET %s: dump ended without completion trailer", url)
	}
	if lines > 0 {
		lines-- // header row
	}
	return lines, nil
}

// walkViolations pages through a session's violation listing following
// next_cursor to exhaustion — every page pinned to the version the
// first page was served at. Pages fetched before an error are counted.
func (r *readTally) walkViolations(client *http.Client, base, name string) (pages int, err error) {
	url := base + "/v1/sessions/" + name + "/violations?limit=64"
	for {
		var vr server.ViolationsResponse
		t0 := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			return pages, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return pages, err
		}
		if resp.StatusCode != http.StatusOK {
			return pages, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
		}
		if err := json.Unmarshal(body, &vr); err != nil {
			return pages, err
		}
		r.pageLats = append(r.pageLats, time.Since(t0))
		pages++
		if vr.NextCursor == "" {
			return pages, nil
		}
		url = base + "/v1/sessions/" + name + "/violations?cursor=" + vr.NextCursor
	}
}

// postJSON posts v, requires wantStatus, and decodes the body into out
// when non-nil; the response headers come back for callers that read
// the per-stage timing headers.
func postJSON(client *http.Client, url string, v any, wantStatus int, out any) (http.Header, error) {
	hdr, status, err := postJSONStatus(client, url, v, out)
	if err == nil && status != wantStatus {
		err = fmt.Errorf("POST %s: unexpected status %d", url, status)
	}
	return hdr, err
}

// postJSONStatus posts v and returns the response status alongside the
// headers; a non-2xx response is reported as an error carrying the body
// text, with the status still returned so callers can branch on 429. A
// 421 carrying X-Primary — a clustered node answering for a session it
// only replicates — is followed once to the named primary, which is the
// client half of the cluster's redirect contract.
func postJSONStatus(client *http.Client, url string, v any, out any) (http.Header, int, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, 0, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(b))
		if err != nil {
			return nil, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return resp.Header, resp.StatusCode, err
		}
		if resp.StatusCode == http.StatusMisdirectedRequest && attempt == 0 {
			if redirected := redirectToPrimary(url, resp.Header.Get("X-Primary")); redirected != "" {
				url = redirected
				continue
			}
		}
		if resp.StatusCode >= 300 {
			return resp.Header, resp.StatusCode, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
		}
		if out != nil {
			return resp.Header, resp.StatusCode, json.Unmarshal(body, out)
		}
		return resp.Header, resp.StatusCode, nil
	}
}

// redirectToPrimary rewrites rawURL's host to the primary address a 421
// response named; "" when there is nothing to follow.
func redirectToPrimary(rawURL, primary string) string {
	if primary == "" {
		return ""
	}
	u, err := neturl.Parse(rawURL)
	if err != nil {
		return ""
	}
	if strings.Contains(primary, "://") {
		p, err := neturl.Parse(primary)
		if err != nil {
			return ""
		}
		u.Scheme, u.Host = p.Scheme, p.Host
	} else {
		u.Host = primary
	}
	return u.String()
}
