// Package server hosts many named streaming cleaning sessions behind an
// HTTP/JSON interface — the paper's §5 online scenario (INCREPAIR over
// arriving ΔD batches) turned into a multi-tenant service. Each session
// is an increpair.Session: a base database plus a CFD set, cleaned once
// at creation, then kept consistent under streamed mutation batches with
// per-batch cost O(|ΔD|).
//
// # Concurrency architecture
//
// Sessions live in a sharded registry (name-hash → shard, one RWMutex
// per shard), so tenants contend only on registry metadata, never on
// each other's data. Every session is a pipeline in which the engine
// pass is the only per-session serialization point:
//
//	handler: decode + validate            (per-request goroutine)
//	worker:  fold coalescable batches,    (the session's single writer)
//	         Check, send the record,
//	         run the engine pass
//	committer: delta-encode, WAL append,  (overlaps the record's pass
//	         fsync;                       when a processor is free)
//	         then reply, event            (overlaps the next pass)
//	         └─ shipper: frame + forward  (after the local fsync)
//	              └────────────────────────▶ follower: ReplicateBatch
//
// The shipping arm exists only on clustered nodes (Options.Peers): the
// committer hands each fsynced batch to a per-session Shipper, which
// frames it (CRC-32C, version-bracketed) and forwards it to the ring
// follower, where ReplicateBatch puts it on the standby session's own
// queue: the same worker replays it and the same committer appends it
// to the replica's own WAL — so a promoted follower resumes the journal
// as its own. Under Options.Ack == AckQuorum the committer
// waits for the follower's acknowledgement before replying; under
// AckLeader shipping is asynchronous and lost frames heal via the
// follower's gap detection plus a snapshot resync.
//
// The worker is the session's single writer by construction, which is
// what keeps service results byte-identical to driving the in-process
// API: it issues the same ApplyOps calls a single-threaded caller
// would, and the reply content is fixed at the pass boundary before the
// committer ships it. The WAL record does not depend on the pass —
// Session.Check fixes the version the pass lands on — so its encoding,
// append and fsync run concurrently with the pass itself, and response
// encoding and the event's append with the worker's next pass. Nothing
// else runs per session: SSE streams read the event ring on their own
// request goroutines (see stream.go), and idle cached views expire when
// the committer prunes after a pass (see views.go). A hosted session's
// only goroutines are its worker, its committer and, on clustered
// nodes, its shipper.
//
// Two write paths feed the queue. POST .../apply is synchronous: the
// handler enqueues and waits for the pass's reply (a full queue makes it
// wait — natural backpressure bounded by the client's context). POST
// .../ingest is asynchronous: it enqueues and returns 202 immediately,
// or 429 when the queue is full; the worker coalesces runs of adjacent
// ingested batches into one engine pass to amortize per-pass overhead
// under burst load.
//
// Reads never hold the session lock beyond a pinned-view handoff:
// session snapshots are published atomically after every pass, and the
// streaming reads — violation pages and CSV dumps — run against
// snapshot-isolated ReadViews (see views.go). The lock is taken only to
// pin the view; serialization streams outside it while the writer
// preserves page pre-images copy-on-write. Every read reply carries
// X-Session-Version, the journal version it was served at; paginated
// listings continue at that exact version via an opaque cursor,
// answered 410 Gone once the version is evicted.
//
// Shutdown is graceful: Drain refuses new work, lets every worker finish
// its queued batches, and closes the sessions — no accepted batch is
// ever dropped.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
)

// Options configures a Server.
type Options struct {
	// QueueDepth bounds each session's work queue; a full queue blocks
	// synchronous applies and rejects async ingests with 429. Default 32.
	QueueDepth int
	// DrainTimeout bounds Shutdown's wait for queued work. Default 10s.
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// MaxReadLimit caps the page size of violation listings: a ?limit=
	// beyond it is clamped (the response's X-Effective-Limit header
	// reports the limit actually applied). Default 1000.
	MaxReadLimit int

	// DataDir, when non-empty, makes every session durable: each gets
	// <DataDir>/<name>/ with WAL + snapshot generations and a page store
	// the snapshots are written through (see persist.go and
	// internal/store), and Server.Recover re-hosts persisted sessions on
	// boot. Empty keeps the service purely in memory.
	DataDir string
	// Fsync selects when WAL appends reach stable storage (per batch or
	// never explicitly). Default FsyncBatch.
	Fsync FsyncPolicy
	// SnapshotEvery rotates to a fresh snapshot generation after this
	// many logged batches, bounding replay time and WAL growth.
	// Default 64.
	SnapshotEvery int

	// Peers is the cluster's static node list (host:port each); Self is
	// this node's own entry in it. With both set the server runs
	// clustered: session names hash consistently across the peers, every
	// node routes requests it does not own to the owner, and each
	// primary ships its WAL to the session's ring follower (see
	// cluster.go and internal/cluster/ship). Empty runs single-node.
	Peers []string
	Self  string
	// Ack selects what a write waits for: AckLeader (default) answers
	// after the primary's fsync, AckQuorum also waits for the follower's
	// acknowledgement.
	Ack AckMode
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 32
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.MaxReadLimit <= 0 {
		o.MaxReadLimit = 1000
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 64
	}
	return o
}

// Server is the HTTP face of the session registry. Build one with New,
// mount Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	opts     Options
	reg      *Registry
	mux      *http.ServeMux
	started  time.Time
	families []family // what /metrics and /v1/metrics export
}

// New builds a Server with an empty registry.
func New(opts Options) *Server {
	s := &Server{opts: opts.withDefaults(), started: time.Now()}
	s.reg = NewRegistry(s.opts.QueueDepth)
	if s.opts.DataDir != "" {
		s.reg.persist = &s.opts
	}
	if len(s.opts.Peers) > 0 && s.opts.Self != "" {
		s.reg.cluster = newClusterState(s.opts.Peers, s.opts.Self, s.opts.Ack)
	}
	s.families = s.declareFamilies()
	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", s.handleHealth)
	m.HandleFunc("GET /metrics", s.handlePrometheus)
	m.HandleFunc("GET /v1/metrics", s.handleMetrics)
	m.HandleFunc("GET /v1/sessions", s.handleList)
	m.HandleFunc("POST /v1/sessions", s.handleCreate)
	m.HandleFunc("GET /v1/sessions/{name}", s.handleGet)
	m.HandleFunc("DELETE /v1/sessions/{name}", s.handleDelete)
	m.HandleFunc("POST /v1/sessions/{name}/apply", s.handleApply)
	m.HandleFunc("POST /v1/sessions/{name}/ingest", s.handleIngest)
	m.HandleFunc("GET /v1/sessions/{name}/violations", s.handleViolations)
	m.HandleFunc("GET /v1/sessions/{name}/dump", s.handleDump)
	m.HandleFunc("GET /v1/sessions/{name}/events", s.handleEvents)
	m.HandleFunc("POST /v1/sessions/{name}/promote", s.handlePromote)
	m.HandleFunc("PUT /v1/replica/{name}", s.handleReplicaInstall)
	m.HandleFunc("POST /v1/replica/{name}/batch", s.handleReplicaBatch)
	m.HandleFunc("DELETE /v1/replica/{name}", s.handleReplicaDrop)
	m.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux = m
	return s
}

// Handler returns the service's HTTP handler. Clustered nodes wrap the
// mux in the routing layer (serve locally / 421 to the primary / proxy
// to the owner); single-node servers expose the mux directly.
func (s *Server) Handler() http.Handler {
	if s.reg.cluster != nil {
		return http.HandlerFunc(s.route)
	}
	return s.mux
}

// Shutdown drains the registry gracefully: refuses new work, finishes
// queued batches, closes every session. If ctx carries no deadline a
// DrainTimeout one is applied.
func (s *Server) Shutdown(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.DrainTimeout)
		defer cancel()
	}
	return s.reg.Drain(ctx)
}

func (s *Server) handleHealth(w http.ResponseWriter, req *http.Request) {
	if s.reg.draining.Load() {
		writeStatus(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request) {
	var cr CreateRequest
	if !decodeBody(w, req, s.opts.MaxBodyBytes, &cr) {
		return
	}
	if err := validName(cr.Name); err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	if strings.TrimSpace(cr.CFDs) == "" {
		writeStatus(w, http.StatusBadRequest, "cfds must hold at least one constraint (text format, see ParseCFDs)")
		return
	}
	quota, err := sessionQuota(cr.Quota)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}

	// Assemble the base relation: full CSV, or schema + rows.
	var rel *relation.Relation
	switch {
	case cr.BaseCSV != "":
		name := "data"
		if cr.Schema != nil && cr.Schema.Name != "" {
			name = cr.Schema.Name
		}
		rel, err = relation.ReadCSV(name, strings.NewReader(cr.BaseCSV))
		if err != nil {
			writeStatus(w, http.StatusBadRequest, fmt.Sprintf("base_csv: %v", err))
			return
		}
	case cr.Schema != nil:
		sch, err := relation.NewSchema(cr.Schema.Name, cr.Schema.Attrs...)
		if err != nil {
			writeStatus(w, http.StatusBadRequest, err.Error())
			return
		}
		rel = relation.New(sch)
		for i, wt := range cr.Base {
			t, err := decodeTuple(wt, sch.Arity())
			if err != nil {
				writeStatus(w, http.StatusBadRequest, fmt.Sprintf("base[%d]: %v", i, err))
				return
			}
			if err := rel.Insert(t); err != nil {
				writeStatus(w, http.StatusBadRequest, fmt.Sprintf("base[%d]: %v", i, err))
				return
			}
		}
	default:
		writeStatus(w, http.StatusBadRequest, "either base_csv or schema is required")
		return
	}

	parsed, err := cfd.Parse(rel.Schema(), strings.NewReader(cr.CFDs))
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	sigma := cfd.NormalizeAll(parsed)
	opts, err := decodeOptions(cr.Options)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}

	sess, err := increpair.NewSession(rel, sigma, opts)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	h, err := s.reg.Create(cr.Name, sess, rel.Schema(), quota)
	if err != nil {
		sess.Close()
		writeError(w, err)
		return
	}
	resp := CreateResponse{
		Name:     h.name,
		Attrs:    h.attrs,
		Rules:    len(sigma),
		Snapshot: encodeSnapshot(sess.Snapshot()),
	}
	if ini := sess.Initial(); ini != nil {
		resp.Initial = &BatchSummary{Tuples: len(ini.Inserted), Cost: ini.Cost, Changes: ini.Changes}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// validName refuses a session name that is not usable as a data-dir
// entry. The leading-dot ban ("." and ".." foremost) applies whether or
// not persistence is on — a name accepted by an in-memory service must
// stay valid when the operator turns -data-dir on. Backslash and colon
// are banned for the same reason: on Windows they are path syntax, and a
// name like `a\..\x` would escape the data dir through filepath.Join.
// Every way a session comes to be hosted goes through Registry.register,
// which calls this where the directory is made; handlers call it first
// only to answer 400 before doing any work.
func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\: \t\n") || len(name) > 128 || strings.HasPrefix(name, ".") {
		return errors.New("session name must be non-empty, at most 128 bytes, contain no slash, backslash, colon or whitespace, and not start with a dot")
	}
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	hs := s.reg.List()
	resp := ListResponse{Sessions: make([]SessionInfo, 0, len(hs))}
	for _, h := range hs {
		resp.Sessions = append(resp.Sessions, h.info())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	h, err := s.reg.Get(req.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, h.info())
}

func (h *hosted) info() SessionInfo {
	si := SessionInfo{
		Name:     h.name,
		Attrs:    h.attrs,
		Queue:    len(h.queue),
		QueueCap: cap(h.queue),
		Persist:  h.pers.status(),
		Snapshot: encodeSnapshot(h.sess.Snapshot()),
	}
	if h.quota != nil {
		si.Quota = wireQuota(h.quota.cfg)
	}
	// Store renders only for durable sessions, so memory-only listings
	// stay byte-stable.
	if st := h.pers.storeStats(); st != nil {
		si.Store = &WireStore{
			Kind:        "disk",
			Gen:         st.Gen,
			Pages:       st.Pages,
			FlushPages:  st.FlushPages,
			Tuples:      st.Tuples,
			DictEntries: st.DictEntries,
			DiskBytes:   st.DiskBytes,
		}
	}
	// Replication fields render only on clustered nodes, so single-node
	// listings stay byte-stable.
	if h.clustered {
		si.Role = h.roleString()
		if ref := h.shipper.Load(); ref != nil {
			st := ref.sp.Stats()
			si.Replication = fmt.Sprintf("%s@%d", ref.target, st.LastShipped)
			if st.LastError != "" {
				si.Replication += fmt.Sprintf(" (failing: %s)", st.LastError)
			} else if st.Degraded > 0 {
				si.Replication += " (degraded)"
			}
		}
	}
	return si
}

func (s *Server) handleDelete(w http.ResponseWriter, req *http.Request) {
	if err := s.reg.Remove(req.Context(), req.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// decodeApply turns a wire batch into engine inputs against h's schema.
func (h *hosted) decodeApply(ar ApplyRequest) (deletes []relation.TupleID, sets []increpair.SetOp, inserts []*relation.Tuple, err error) {
	sch := h.schema
	for _, id := range ar.Deletes {
		deletes = append(deletes, relation.TupleID(id))
	}
	for i, ws := range ar.Sets {
		a, err := sch.Index(ws.Attr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sets[%d]: %v", i, err)
		}
		sets = append(sets, increpair.SetOp{ID: relation.TupleID(ws.ID), Attr: a, Value: decodeValue(ws.Value)})
	}
	for i, wt := range ar.Inserts {
		// The wire contract assigns insert ids server-side, in arrival
		// order: a client-supplied id could collide mid-pass or jump the
		// id watermark for every later tuple.
		if wt.ID != 0 {
			return nil, nil, nil, fmt.Errorf("inserts[%d]: inserts must not carry an id (the session assigns them)", i)
		}
		t, err := decodeTuple(wt, sch.Arity())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("inserts[%d]: %v", i, err)
		}
		inserts = append(inserts, t)
	}
	return deletes, sets, inserts, nil
}

func (s *Server) handleApply(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	h, err := s.reg.Get(name)
	if err != nil {
		writeError(w, err)
		return
	}
	var ar ApplyRequest
	decode, ok := s.decodeApplyBody(w, req, &ar)
	if !ok {
		return
	}
	deletes, sets, inserts, err := h.decodeApply(ar)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	rep, err := s.reg.Apply(req.Context(), h, deletes, sets, inserts)
	if err != nil {
		writeError(w, err)
		return
	}
	if rep.err != nil {
		writeStatus(w, http.StatusUnprocessableEntity, rep.err.Error())
		return
	}
	// Per-stage timings ride as headers, never in the body: the body must
	// stay byte-identical to the equivalent in-process call. The reply's
	// own encode is still to come, so it is counted in /metrics instead.
	hdr := w.Header()
	hdr.Set("X-Stage-Decode-Us", strconv.FormatInt(decode.Microseconds(), 10))
	hdr.Set("X-Stage-Queue-Us", strconv.FormatInt(rep.wait.Microseconds(), 10))
	hdr.Set("X-Stage-Engine-Us", strconv.FormatInt(rep.engine.Microseconds(), 10))
	hdr.Set("X-Stage-Persist-Us", strconv.FormatInt(rep.persist.Microseconds(), 10))
	start := time.Now()
	n := writeJSON(w, http.StatusOK, applyResponse(name, rep.seq, rep.res, rep.deleted, rep.snap, h.attrs))
	s.reg.applyReplyBytes.Add(uint64(n))
	s.reg.applyEncodeNanos.Add(uint64(time.Since(start)))
}

func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	h, err := s.reg.Get(name)
	if err != nil {
		writeError(w, err)
		return
	}
	var ar ApplyRequest
	if _, ok := s.decodeApplyBody(w, req, &ar); !ok {
		return
	}
	if len(ar.Deletes) > 0 || len(ar.Sets) > 0 {
		writeStatus(w, http.StatusBadRequest, "ingest accepts inserts only; use apply for deletes and sets")
		return
	}
	_, _, inserts, err := h.decodeApply(ar)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.reg.Ingest(h, inserts); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Session: name, Queued: len(inserts)})
}

// handleViolations serves one page of a session's violation listing,
// read from a pinned snapshot view. Without a cursor it pins the
// current version, applies the optional rule/attr/min_id/max_id
// filters, and returns the first limit entries of the
// canonical (tuple id, rule, partner) order; when entries remain, the
// response carries next_cursor — an opaque (version, offset, filter)
// token that continues the SAME pinned version, so the concatenation
// of pages is exactly the one-shot listing. A cursor whose version has
// been evicted gets 410 Gone: restart without a cursor.
func (s *Server) handleViolations(w http.ResponseWriter, req *http.Request) {
	h, err := s.reg.Get(req.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	q := req.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit <= 0 {
			writeStatus(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
	}
	// The clamp is not silent: X-Effective-Limit always reports the page
	// size actually applied, so a client asking past -max-read-limit can
	// tell a truncated page from an exhausted listing.
	limit = min(limit, s.opts.MaxReadLimit)
	w.Header().Set("X-Effective-Limit", strconv.Itoa(limit))

	var cur readCursor
	if tok := q.Get("cursor"); tok != "" {
		// The filter travels in the token: every page of one pagination
		// is provably the same query at the same version.
		if q.Get("rule") != "" || q.Get("attr") != "" || q.Get("min_id") != "" || q.Get("max_id") != "" {
			writeStatus(w, http.StatusBadRequest, "cursor already carries the filter; drop rule, attr, min_id and max_id")
			return
		}
		if cur, err = decodeCursor(tok); err != nil {
			writeStatus(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		cur.f = cfd.AnyVio()
		cur.f.Rule = q.Get("rule")
		if a := q.Get("attr"); a != "" {
			if cur.f.Attr, err = h.schema.Index(a); err != nil {
				writeStatus(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		for _, p := range []struct {
			key string
			dst *relation.TupleID
		}{{"min_id", &cur.f.MinID}, {"max_id", &cur.f.MaxID}} {
			if v := q.Get(p.key); v != "" {
				id, err := strconv.ParseInt(v, 10, 64)
				if err != nil || id < 0 {
					writeStatus(w, http.StatusBadRequest, p.key+" must be a non-negative integer")
					return
				}
				*p.dst = relation.TupleID(id)
			}
		}
	}

	var (
		rv      *increpair.ReadView
		release func()
	)
	if cur.version != 0 {
		rv, release, err = h.views.acquireAt(cur.version)
	} else {
		rv, release, err = h.views.acquireCurrent()
	}
	if errors.Is(err, errVersionGone) {
		writeStatus(w, http.StatusGone, err.Error())
		return
	}
	if err != nil {
		writeStatus(w, http.StatusServiceUnavailable, "session is closed")
		return
	}
	defer release()

	page, more := rv.Violations(cur.f, cur.offset, limit)
	resp := ViolationsResponse{
		Session:    h.name,
		Version:    rv.Version(),
		Total:      rv.TotalViolations(),
		Violations: encodeViolations(page),
	}
	if more {
		resp.NextCursor = encodeCursor(readCursor{
			version: rv.Version(), offset: cur.offset + len(page), f: cur.f,
		})
	}
	w.Header().Set("X-Session-Version", strconv.FormatUint(rv.Version(), 10))
	writeJSON(w, http.StatusOK, resp)
}

// countWriter counts the bytes of a response body: a streaming dump or a
// JSON reply. Nothing flushes the response on the way: the row codec
// writes 64 KiB blocks, which net/http's few-KiB buffers pass straight to
// the socket, so a dump's client sees steady progress without being
// pushed.
type countWriter struct {
	w io.Writer
	n int
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += n
	return n, err
}

// handleDump streams the session as CSV from a pinned snapshot view, one
// write a page of rows: a page no write has touched since an earlier dump
// comes from the relation's CSV page cache, any other is encoded (and
// cached) as the dump reaches it, and nothing else is buffered.
// Completion is signaled out-of-band — the body has no length up front —
// by the X-Dump-Complete trailer; a mid-stream failure aborts the
// connection instead of ending the chunked body cleanly, so `curl -f` (and
// any client checking the trailer) can tell a truncated export from a
// finished one.
func (s *Server) handleDump(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	h, err := s.reg.Get(req.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	rv, release, err := h.views.acquireCurrent()
	if err != nil {
		// Pin failures happen before any byte is written, so a racing
		// delete still gets a clean error status.
		writeStatus(w, http.StatusServiceUnavailable, "session is closed")
		return
	}
	defer release()
	hdr := w.Header()
	hdr.Set("Content-Type", "text/csv")
	hdr.Set("X-Session-Version", strconv.FormatUint(rv.Version(), 10))
	hdr.Set("Trailer", "X-Dump-Complete")
	w.WriteHeader(http.StatusOK)
	cw := &countWriter{w: w}
	cached, encoded, err := rv.WriteCSVPages(cw)
	if err != nil {
		// Headers are out; a clean EOF here would masquerade as a
		// successful export. Abort the connection mid-chunk instead.
		panic(http.ErrAbortHandler)
	}
	hdr.Set("X-Dump-Complete", "true")
	s.reg.dumpRows.Add(uint64(rv.Len()))
	s.reg.dumpBytes.Add(uint64(cw.n))
	s.reg.dumpNanos.Add(uint64(time.Since(start)))
	s.reg.dumpPagesCached.Add(uint64(cached))
	s.reg.dumpPagesEncoded.Add(uint64(encoded))
}

// decodeBody decodes a create body with encoding/json, streamed through
// the size limit.
func decodeBody(w http.ResponseWriter, req *http.Request, max int64, into any) bool {
	if err := decodeJSON(http.MaxBytesReader(w, req.Body, max), into); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// decodeJSON is encoding/json with unknown fields refused, and the one
// rule every body is held to after its value: only JSON whitespace may
// follow (a trailing newline, as curl -d @file sends, is fine; a second
// value or junk is not silently dropped).
func decodeJSON(r io.Reader, into any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	var syntax *json.SyntaxError
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err == nil || errors.As(err, &syntax):
		return errors.New("unexpected data after the request object")
	default:
		return err // the read failed: over the limit, or the client went away
	}
}

// writeBodyError answers a body that could not be read or decoded: 413
// when it ran over MaxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeStatus(w, status, fmt.Sprintf("bad request body: %v", err))
}

// maxPooledBody bounds what bodyPool keeps: a buffer grown past it by
// one large batch is left to the collector.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeApplyBody reads an /apply or /ingest body once, through the size
// limit, into a pooled buffer sized from Content-Length, and decodes it:
// by the hand-written decoder when that is certain of every byte, by
// decodeJSON on the same bytes when it declines. Both decoders copy what
// they keep, so the buffer goes back to the pool. It reports how long the
// decode took, and whether the body was good (if not, it has answered).
func (s *Server) decodeApplyBody(w http.ResponseWriter, req *http.Request, ar *ApplyRequest) (time.Duration, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	// Content-Length is the client's word: it sizes the buffer only up to
	// what the pool keeps, beyond that memory follows the bytes that
	// arrive. ReadFrom wants MinRead spare bytes for the read that finds
	// the end, or it doubles a buffer that was exactly large enough.
	if n := req.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPooledBody)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, s.opts.MaxBodyBytes)); err != nil {
		writeBodyError(w, err)
		return 0, false
	}
	start := time.Now()
	var err error
	if !decodeApplyRequest(buf.Bytes(), ar) {
		s.reg.applyBodiesStdlib.Add(1)
		err = decodeJSON(bytes.NewReader(buf.Bytes()), ar)
	}
	decode := time.Since(start)
	s.reg.applyBodies.Add(1)
	s.reg.applyBodyBytes.Add(uint64(buf.Len()))
	s.reg.applyDecodeNanos.Add(uint64(decode))
	if err != nil {
		writeBodyError(w, err)
		return 0, false
	}
	return decode, true
}

// writeJSON answers with v as one JSON document and reports the body
// bytes written.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	cw := &countWriter{w: w}
	_ = json.NewEncoder(cw).Encode(v)
	return cw.n
}

func writeStatus(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeError maps registry errors onto HTTP statuses. A rate-limited
// request carries its bucket's actual refill time: Retry-After in
// integer seconds (rounded up, per RFC 9110) and the precise wait in
// X-Retry-After-Ms for clients doing sub-second backoff.
func writeError(w http.ResponseWriter, err error) {
	var rle *RateLimitError
	switch {
	case errors.As(err, &rle):
		ms := (rle.RetryAfter + time.Millisecond - 1) / time.Millisecond
		if ms < 1 {
			ms = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(rle.retryAfterSeconds()))
		w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(int64(ms), 10))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrRelationFull):
		writeStatus(w, http.StatusForbidden, err.Error())
	case errors.Is(err, ErrSubscriberLimit):
		writeStatus(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrNotFound):
		writeStatus(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrExists):
		writeStatus(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotDurable):
		writeStatus(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrBacklog):
		writeStatus(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrFollower):
		// Reached when the routing layer is bypassed (direct or
		// forwarded requests); routed writes get the 421 with X-Primary
		// from writeMisdirected.
		writeStatus(w, http.StatusMisdirectedRequest, err.Error())
	default:
		writeStatus(w, http.StatusBadRequest, err.Error())
	}
}
