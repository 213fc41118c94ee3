package server

import (
	"fmt"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
)

// The wire layer: JSON shapes for every request and response the service
// speaks, plus the conversions to and from the in-process types. SQL
// null is represented as JSON null (a nil *string); everything else is a
// plain string. Field order in the structs below is part of the wire
// contract — responses serialize deterministically, which is what lets
// the equivalence suite compare server output byte for byte against the
// in-process API.

// WireTuple is one tuple on the wire. ID must be omitted (zero) on
// insert requests — the session assigns ids in arrival order, and a
// client-supplied id is rejected with 400 — and is always present on
// responses. W carries optional per-attribute confidence weights, the
// paper's w(t, A) (§3.2). It is request-only: a repair changes values,
// never weights, so replies leave it nil and the "w" key is omitted.
type WireTuple struct {
	ID   int64     `json:"id,omitempty"`
	Vals []*string `json:"vals"`
	W    []float64 `json:"w,omitempty"`
}

// WireSet is one cell update: set attribute Attr (by name) of tuple ID
// to Value; a JSON-null Value sets SQL null. The updated tuple is
// re-cleaned by the session's repair pass, so the stored value may
// differ from the requested one if the update introduced violations.
type WireSet struct {
	ID    int64   `json:"id"`
	Attr  string  `json:"attr"`
	Value *string `json:"value"`
}

// WireChange reports one repaired cell of an applied batch: the engine
// stored To where the arriving tuple carried From.
type WireChange struct {
	ID   int64   `json:"id"`
	Attr string  `json:"attr"`
	From *string `json:"from"`
	To   *string `json:"to"`
}

// WireSnapshot is increpair.Snapshot on the wire.
type WireSnapshot struct {
	Watermark  int64   `json:"watermark"`
	Version    uint64  `json:"version"`
	Size       int     `json:"size"`
	Batches    int     `json:"batches"`
	Inserted   int     `json:"inserted"`
	Deleted    int     `json:"deleted"`
	Cost       float64 `json:"cost"`
	Changes    int     `json:"changes"`
	Violations int     `json:"violations"`
	Satisfied  bool    `json:"satisfied"`
	Closed     bool    `json:"closed"`
}

// CreateRequest opens a named session. The base database comes either
// from BaseCSV (a full CSV document whose header names the attributes;
// Schema may then be omitted) or from Schema plus Base rows; an empty
// base is a schema-only session. CFDs is the constraint set in the
// package's text format (see ParseCFDs).
type CreateRequest struct {
	Name    string       `json:"name"`
	Schema  *WireSchema  `json:"schema,omitempty"`
	CFDs    string       `json:"cfds"`
	BaseCSV string       `json:"base_csv,omitempty"`
	Base    []WireTuple  `json:"base,omitempty"`
	Options *WireOptions `json:"options,omitempty"`
	// Quota sets this session's admission-control limits, taken as sent:
	// absent or zero fields are unlimited, a negative field is a 400.
	Quota *WireQuota `json:"quota,omitempty"`
}

// WireQuota is a session's admission-control configuration on the wire:
// token-bucket rates plus hard caps, zero meaning unlimited. A create
// request sets it and session listings report it (absent when fully
// unlimited). A rate-limited write is answered 429 with Retry-After;
// the size cap maps to 403 and the subscriber cap to 409.
type WireQuota struct {
	OpsPerSec       float64 `json:"ops_per_sec,omitempty"`
	TuplesPerSec    float64 `json:"tuples_per_sec,omitempty"`
	MaxRelationSize int     `json:"max_relation_size,omitempty"`
	MaxSubscribers  int     `json:"max_subscribers,omitempty"`
}

// WireSchema names a relation and its attributes.
type WireSchema struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

// WireOptions tunes the session's INCREPAIR engine; zero values take
// the engine defaults (k = 2, linear ordering, 4 nearest values).
type WireOptions struct {
	// Ordering is the ΔD processing order: "linear", "vio" or "weight".
	Ordering string `json:"ordering,omitempty"`
	// K is TUPLERESOLVE's attribute-subset size.
	K int `json:"k,omitempty"`
	// NearestK is the per-attribute fan-out of the cost-based index.
	NearestK int `json:"nearest_k,omitempty"`
}

// CreateResponse acknowledges a created session. Initial summarizes the
// §5.3 cleaning performed when the base was dirty, or is absent.
type CreateResponse struct {
	Name     string        `json:"name"`
	Attrs    []string      `json:"attrs"`
	Rules    int           `json:"rules"`
	Initial  *BatchSummary `json:"initial,omitempty"`
	Snapshot WireSnapshot  `json:"snapshot"`
}

// BatchSummary condenses one engine pass.
type BatchSummary struct {
	Tuples  int     `json:"tuples"`
	Cost    float64 `json:"cost"`
	Changes int     `json:"changes"`
}

// ApplyRequest is one mutation batch: deletes, then cell updates, then
// inserts, applied by a single engine pass (see Session.ApplyOps).
type ApplyRequest struct {
	Inserts []WireTuple `json:"inserts,omitempty"`
	Deletes []int64     `json:"deletes,omitempty"`
	Sets    []WireSet   `json:"sets,omitempty"`
}

// ApplyResponse reports one synchronously applied batch. Seq is the
// session's engine-pass sequence number; Inserted holds each repaired
// tuple's assigned id and stored values (never its weights, which the
// client sent and the repair kept), and Changed lists the cells the
// repair modified relative to the arriving values. applyResponse is the
// one place it is built.
type ApplyResponse struct {
	Session  string       `json:"session"`
	Seq      uint64       `json:"seq"`
	Inserted []WireTuple  `json:"inserted"`
	Changed  []WireChange `json:"changed,omitempty"`
	Deleted  int          `json:"deleted"`
	Cost     float64      `json:"cost"`
	Changes  int          `json:"changes"`
	Snapshot WireSnapshot `json:"snapshot"`
}

// IngestResponse acknowledges an asynchronously queued batch (202): the
// batch will be applied — possibly coalesced with queued neighbours into
// one engine pass — and its effect observed via the events stream or the
// session snapshot.
type IngestResponse struct {
	Session string `json:"session"`
	Queued  int    `json:"queued"`
}

// WireViolation is one CFD violation: tuple T violates rule Rule; With
// is the partner tuple for variable-RHS violations, 0 for single-tuple
// (constant) violations.
type WireViolation struct {
	T    int64  `json:"t"`
	Rule string `json:"rule"`
	With int64  `json:"with,omitempty"`
}

// ViolationsResponse is one page of a session's violation listing,
// read at one pinned journal version (Version; also the response's
// X-Session-Version header). Total counts ALL violations at that
// version, before filters and paging. NextCursor, when present, is the
// opaque token for the next page at the same version: pass it back as
// ?cursor= with no other filter parameters. A cursor whose version the
// server no longer retains is answered 410 Gone — restart the listing
// without a cursor.
type ViolationsResponse struct {
	Session    string          `json:"session"`
	Version    uint64          `json:"version"`
	Total      int             `json:"total"`
	Violations []WireViolation `json:"violations"`
	NextCursor string          `json:"next_cursor,omitempty"`
}

// SessionInfo describes one hosted session in listings. Persist is
// absent on an in-memory service, "ok" while the session's WAL is
// advancing, and "error: ..." once persistence broke (the session keeps
// serving; its durable image stops advancing).
type SessionInfo struct {
	Name     string     `json:"name"`
	Attrs    []string   `json:"attrs"`
	Queue    int        `json:"queue"`
	QueueCap int        `json:"queue_cap"`
	Persist  string     `json:"persist,omitempty"`
	Quota    *WireQuota `json:"quota,omitempty"`
	// Role ("primary"/"follower") and Replication ("target@version",
	// the follower's acknowledged journal version) render only on
	// clustered nodes; single-node listings stay byte-stable.
	Role        string `json:"role,omitempty"`
	Replication string `json:"replication,omitempty"`
	// Store reports a durable session's page store; absent for
	// memory-only sessions, so their listings stay byte-stable.
	Store    *WireStore   `json:"store,omitempty"`
	Snapshot WireSnapshot `json:"snapshot"`
}

// WireStore reports a durable session's page store in listings:
// the committed manifest generation, page counts (committed / written by
// the last committed flush), row and dictionary sizes at the last flush,
// and the store's total on-disk footprint.
type WireStore struct {
	Kind        string `json:"kind"`
	Gen         uint64 `json:"gen"`
	Pages       int    `json:"pages"`
	FlushPages  int    `json:"flush_pages"`
	Tuples      int    `json:"tuples"`
	DictEntries int    `json:"dict_entries"`
	DiskBytes   int64  `json:"disk_bytes"`
}

// ListResponse enumerates hosted sessions in name order.
type ListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
}

// Event is one server-sent notification, emitted after every engine
// pass: which session advanced, how many client batches the pass
// coalesced, the dirty tuples the repair had to touch, and the resulting
// snapshot. Clients stream these from GET /v1/sessions/{name}/events.
// Resync is set on the first event after a gap in a stream: the
// subscriber fell a whole event ring behind, or resumed from a version
// the ring does not cover. The embedded snapshot is still the session's
// authoritative state at that event.
type Event struct {
	Session   string       `json:"session"`
	Seq       uint64       `json:"seq"`
	Resync    bool         `json:"resync,omitempty"`
	Coalesced int          `json:"coalesced"`
	Inserted  int          `json:"inserted"`
	Deleted   int          `json:"deleted"`
	Dirty     []WireChange `json:"dirty,omitempty"`
	Snapshot  WireSnapshot `json:"snapshot"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// misdirectedResponse is the 421 body a replica answers writes with: the
// primary's address rides in the body and the X-Primary header.
type misdirectedResponse struct {
	Error   string `json:"error"`
	Primary string `json:"primary,omitempty"`
}

// PromoteResponse reports a promotion's outcome (idempotent: promoting
// a primary reports its current state).
type PromoteResponse struct {
	Session string `json:"session"`
	Role    string `json:"role"`
	Version uint64 `json:"version"`
}

// ClusterInfo is this node's view of the cluster: its identity, the
// ring membership, and every session it hosts with ownership and
// shipping state. Served by GET /v1/cluster on any node (clustered or
// not — a single-node server reports just its sessions).
type ClusterInfo struct {
	Self     string           `json:"self,omitempty"`
	Peers    []string         `json:"peers,omitempty"`
	Ack      string           `json:"ack,omitempty"`
	Sessions []ClusterSession `json:"sessions"`
}

// ClusterSession is one hosted session's replication placement: its
// role here, the ring owner, and — for shipping primaries — the
// follower's address and acknowledged journal version.
type ClusterSession struct {
	Name     string `json:"name"`
	Role     string `json:"role"`
	Version  uint64 `json:"version"`
	Owner    string `json:"owner,omitempty"`
	Follower string `json:"follower,omitempty"`
	Shipped  uint64 `json:"shipped,omitempty"`
	// LastError is the stream's most recent delivery failure, empty when
	// the last delivery succeeded — the operator-visible reason a
	// follower is lagging (e.g. a snapshot install the receiver refused).
	LastError string `json:"last_error,omitempty"`
}

func encodeValue(v relation.Value) *string {
	if v.Null {
		return nil
	}
	s := v.Str
	return &s
}

func decodeValue(p *string) relation.Value {
	if p == nil {
		return relation.NullValue
	}
	return relation.S(*p)
}

// EncodeTuple converts a tuple, weights included, to its request form
// (used by clients — the benchmark harness, examples/service and the
// tests — to build insert batches; inverse of decodeTuple up to id
// assignment). Replies do not use it: applyResponse sends no weights.
func EncodeTuple(t *relation.Tuple) WireTuple {
	wt := WireTuple{ID: int64(t.ID), Vals: encodeVals(t.Vals)}
	if t.W != nil {
		wt.W = append([]float64(nil), t.W...)
	}
	return wt
}

func encodeVals(vals []relation.Value) []*string {
	out := make([]*string, len(vals))
	for i, v := range vals {
		out[i] = encodeValue(v)
	}
	return out
}

func decodeTuple(wt WireTuple, arity int) (*relation.Tuple, error) {
	if len(wt.Vals) != arity {
		return nil, fmt.Errorf("tuple has %d values, want %d", len(wt.Vals), arity)
	}
	if wt.W != nil && len(wt.W) != arity {
		return nil, fmt.Errorf("tuple has %d weights, want %d", len(wt.W), arity)
	}
	// The cost model takes w(t,A) in [0,1] (§3.2): a negative weight makes
	// a change cheaper than leaving the cell alone. NaN cannot arrive as
	// JSON, but the check is written so that it fails NaN too.
	for _, w := range wt.W {
		if !(0 <= w && w <= 1) {
			return nil, fmt.Errorf("weight %v outside [0,1]", w)
		}
	}
	// W is the decoded request's own slice; the tuple takes it over.
	t := &relation.Tuple{ID: relation.TupleID(wt.ID), Vals: make([]relation.Value, arity), W: wt.W}
	for i, p := range wt.Vals {
		t.Vals[i] = decodeValue(p)
	}
	return t, nil
}

func encodeSnapshot(sn increpair.Snapshot) WireSnapshot {
	return WireSnapshot{
		Watermark:  int64(sn.Watermark),
		Version:    sn.Version,
		Size:       sn.Size,
		Batches:    sn.Batches,
		Inserted:   sn.Inserted,
		Deleted:    sn.Deleted,
		Cost:       sn.Cost,
		Changes:    sn.Changes,
		Violations: sn.Violations,
		Satisfied:  sn.Satisfied,
		Closed:     sn.Closed,
	}
}

// changedCells diffs each repaired tuple against its arriving original.
func changedCells(res *increpair.Result, attrs []string) []WireChange {
	var out []WireChange
	for i, rt := range res.Inserted {
		orig := res.Originals[i]
		for a := range rt.Vals {
			if !relation.StrictEq(orig.Vals[a], rt.Vals[a]) {
				out = append(out, WireChange{
					ID:   int64(rt.ID),
					Attr: attrs[a],
					From: encodeValue(orig.Vals[a]),
					To:   encodeValue(rt.Vals[a]),
				})
			}
		}
	}
	return out
}

// applyResponse builds the reply to one applied batch; handleApply sends
// it, and the equivalence battery builds its expected bytes with it. Each
// inserted tuple goes out as its id and stored values, W left nil.
func applyResponse(name string, seq uint64, res *increpair.Result, deleted int, snap increpair.Snapshot, attrs []string) ApplyResponse {
	resp := ApplyResponse{
		Session:  name,
		Seq:      seq,
		Inserted: make([]WireTuple, len(res.Inserted)),
		Changed:  changedCells(res, attrs),
		Deleted:  deleted,
		Cost:     res.Cost,
		Changes:  res.Changes,
		Snapshot: encodeSnapshot(snap),
	}
	for i, t := range res.Inserted {
		resp.Inserted[i] = WireTuple{ID: int64(t.ID), Vals: encodeVals(t.Vals)}
	}
	return resp
}

func encodeViolations(vs []cfd.Violation) []WireViolation {
	out := make([]WireViolation, len(vs))
	for i, v := range vs {
		out[i] = WireViolation{T: int64(v.T), Rule: v.N.Name, With: int64(v.With)}
	}
	return out
}

// decodeOptions maps wire options onto engine options.
func decodeOptions(wo *WireOptions) (*increpair.Options, error) {
	o := &increpair.Options{}
	if wo == nil {
		return o, nil
	}
	switch wo.Ordering {
	case "", "linear":
		o.Ordering = increpair.Linear
	case "vio":
		o.Ordering = increpair.ByViolations
	case "weight":
		o.Ordering = increpair.ByWeight
	default:
		return nil, fmt.Errorf("unknown ordering %q (want linear, vio or weight)", wo.Ordering)
	}
	o.K = wo.K
	o.NearestK = wo.NearestK
	return o, nil
}
