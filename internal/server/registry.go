package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfdclean/internal/cluster/ship"
	"cfdclean/internal/increpair"
	"cfdclean/internal/metrics"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// Registry errors surfaced to HTTP status codes by the handler layer.
var (
	// ErrNotFound reports an unknown session name.
	ErrNotFound = errors.New("server: no such session")
	// ErrExists reports a create with an already-taken name.
	ErrExists = errors.New("server: session already exists")
	// ErrDraining reports an operation against a draining service or a
	// session being shut down.
	ErrDraining = errors.New("server: draining")
	// ErrBacklog reports an async ingest rejected because the session's
	// work queue is full — the wire layer's backpressure signal.
	ErrBacklog = errors.New("server: session queue is full")
	// ErrFollower reports a write against a session hosted here as a
	// replica — mapped to 421 with the primary's address, the redirect
	// contract of the thin-proxy routing scheme.
	ErrFollower = errors.New("server: session is a replica on this node")
	// ErrNotDurable reports a write whose record could not be made
	// durable, or one refused because an earlier one could not — mapped
	// to 503. A session whose persistence has failed is read-only.
	ErrNotDurable = errors.New("server: session persistence failed; writes are refused")
)

// A hosted session's replication role. Both run the same pipeline: a
// primary's worker applies client batches; a follower's refuses them and
// replays the batches its primary ships (ReplicateBatch) until promoted.
const (
	rolePrimary int32 = iota
	roleFollower
)

const registryShards = 16

// Registry is the sharded session table: name → hosted session, spread
// over fixed shards by name hash so concurrent create/lookup/remove on
// different sessions rarely contend on one lock. Each hosted session is
// a two-stage pipeline: a bounded work queue drained by a dedicated
// worker goroutine — the session's single writer by construction, and
// the ONLY stage serialized per session — feeding a committer goroutine.
// For each batch the worker hands the committer the batch's WAL record
// before it runs the pass, and the pass's result after; the committer
// delta-encodes, appends and fsyncs the record while the pass runs, then
// acknowledges the client and publishes the pass event. HTTP handlers
// never run an engine pass themselves; they decode and enqueue, then
// either wait for the committer's reply (apply) or return immediately
// (ingest).
type Registry struct {
	queueDepth int

	// persist, when non-nil, is the server's options with DataDir set:
	// every session gets a durability sidecar (WAL + snapshots under it;
	// see persist.go). nil hosts sessions purely in memory.
	persist *Options

	// quota is the server-wide default admission-control configuration;
	// a create request may override it per session (see quota.go). The
	// zero value is fully unlimited.
	quota wal.Quota

	// cluster, when non-nil, is this node's replication and routing
	// state (-peers/-self/-ack; see cluster.go). nil runs single-node,
	// exactly as before PR 9.
	cluster *clusterState
	// installMu serializes replica installs and teardowns so two
	// concurrent snapshot ships for one name cannot interleave their
	// deregister/register pairs.
	installMu sync.Mutex
	// replicaApplied counts batches applied on this node as a follower.
	replicaApplied metrics.Counter

	shards [registryShards]shard

	// draining flips once, when Drain begins: creates and new work are
	// refused while in-flight queues run dry.
	draining atomic.Bool

	// Service-wide counters; metrics.go declares what each one exports.
	passes, batches, coalesced, rejected, tuples                     metrics.Counter
	dumpRows, dumpBytes, dumpNanos                                   metrics.Counter
	applyBodies, applyBodiesStdlib, applyBodyBytes, applyDecodeNanos metrics.Counter
	applyReplyBytes, applyEncodeNanos                                metrics.Counter

	// ops are the service-wide totals of every session's instruments, and
	// ship those of every shipping stream this node has run.
	ops  instruments
	ship ship.Counters
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*hosted
}

// NewRegistry builds an empty registry; queueDepth bounds each session's
// work queue (minimum 1).
func NewRegistry(queueDepth int) *Registry {
	if queueDepth < 1 {
		queueDepth = 1
	}
	r := &Registry{queueDepth: queueDepth}
	r.ops = instruments{
		passLat:      metrics.NewHistogram(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5),
		walLag:       metrics.NewHistogram(0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5),
		foldSize:     metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64),
		sseDropped:   new(metrics.Counter),
		errorBatches: new(metrics.Counter),
		rateLimited:  new(metrics.Counter),
		nearest:      new(metrics.Counter),
		nearVisited:  new(metrics.Counter),
		nearMeasured: new(metrics.Counter),
		rounds:       new(metrics.Counter),
		freePins:     new(metrics.Counter),
		vioProbes:    new(metrics.Counter),
		rescans:      new(metrics.Counter),
	}
	r.ship = ship.Counters{Batches: new(metrics.Counter), Snapshots: new(metrics.Counter),
		Degraded: new(metrics.Counter), Dropped: new(metrics.Counter)}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*hosted)
	}
	return r
}

func (r *Registry) shard(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &r.shards[h.Sum32()%registryShards]
}

// instruments are the events counted per session and service-wide. The
// registry holds the service-wide set and each session a child of it, so
// one call on a session's instrument counts in both, and a total never
// drops when a session goes.
type instruments struct {
	passLat      *metrics.Histogram // engine pass duration, seconds
	walLag       *metrics.Histogram // WAL append→fsync-acknowledged lag, seconds
	foldSize     *metrics.Histogram // client batches folded per engine pass
	sseDropped   *metrics.Counter   // events dropped at slow SSE subscribers
	errorBatches *metrics.Counter   // batches Check refused, plus passes that failed
	rateLimited  *metrics.Counter   // writes refused by a quota (429/403)
	// The engine's similarity search (increpair.IndexStats): queries, the
	// domain values they visited, and the ones they measured with the DL
	// kernel.
	nearest, nearVisited, nearMeasured *metrics.Counter
	// TUPLERESOLVE's greedy rounds and those decided from the attribute
	// masks alone, its vio(t) probes, and the violation store's bucket
	// recounts.
	rounds, freePins, vioProbes, rescans *metrics.Counter
}

func (in *instruments) child() *instruments {
	return &instruments{in.passLat.Child(), in.walLag.Child(), in.foldSize.Child(),
		in.sseDropped.Child(), in.errorBatches.Child(), in.rateLimited.Child(),
		in.nearest.Child(), in.nearVisited.Child(), in.nearMeasured.Child(),
		in.rounds.Child(), in.freePins.Child(), in.vioProbes.Child(), in.rescans.Child()}
}

// countSearch adds the search work of one engine pass, the difference of
// the session's IndexStats across it.
func (in *instruments) countSearch(before, after increpair.IndexStats) {
	in.nearest.Add(uint64(after.Nearest - before.Nearest))
	in.nearVisited.Add(uint64(after.Visited - before.Visited))
	in.nearMeasured.Add(uint64(after.Measured - before.Measured))
	in.rounds.Add(uint64(after.Rounds - before.Rounds))
	in.freePins.Add(uint64(after.FreePins - before.FreePins))
	in.vioProbes.Add(uint64(after.VioProbes - before.VioProbes))
	in.rescans.Add(uint64(after.BucketRescans - before.BucketRescans))
}

// hosted is one session plus its service furniture: the work queue, the
// worker and committer goroutines' lifecycle channels, the event log,
// the view cache and the instruments.
type hosted struct {
	name   string
	schema *relation.Schema
	attrs  []string
	sess   *increpair.Session

	// quota is the session's admission-control state (nil limiter
	// fields = unlimited); ops the per-tenant instruments.
	quota *quotaState
	ops   *instruments

	// pers is the session's durability sidecar (nil when the registry
	// runs in memory); purge tells the exiting worker to delete the
	// session's on-disk data instead of keeping it for the next boot —
	// set by Remove, never by Drain.
	pers  *persister
	purge atomic.Bool

	queue chan job
	// commits carries each batch's record and then its finished pass, in
	// pass order, from the worker to the committer: the downstream
	// pipeline stage that encodes, logs, syncs, replies and publishes.
	// Closed by the exiting worker after the final drain; committerDone
	// is closed by the exiting committer.
	commits       chan commitItem
	committerDone chan struct{}
	// quit is closed to ask the worker to drain and exit; done is closed
	// by the worker after the queue is drained and the session closed.
	quit     chan struct{}
	done     chan struct{}
	quitOnce sync.Once
	// sendMu fences async enqueues against the worker's final drain: an
	// ingest holds the read side across its check-quit-then-send window,
	// and the exiting worker takes the write side (after quit is closed)
	// before its last sweep of the queue. Every 202-accepted batch is
	// therefore either swept or never accepted — no silent drops.
	// Synchronous applies don't need the fence: they wait on a reply and
	// detect an unprocessed job via done.
	sendMu sync.RWMutex

	seq  atomic.Uint64 // engine passes completed on this session
	subs subscribers
	// views shares pinned read views among this session's streaming
	// readers (see views.go); cursor tokens name versions in it.
	views *viewCache

	// role is the session's replication role (rolePrimary/roleFollower);
	// clustered records whether the hosting registry runs with peers, so
	// info() knows to render the role at all.
	role      atomic.Int32
	clustered bool
	// shipper, when set, streams this primary's committed batches to its
	// follower. Swapped atomically so the committer reads it without a
	// lock; the target rides along for listings and rebalance decisions.
	shipper atomic.Pointer[sessionShipper]
}

// sessionShipper pairs a live shipping stream with its target address.
type sessionShipper struct {
	sp     *ship.Shipper
	target string
}

// job is one unit of queued work. Async insert-only jobs (reply == nil,
// coalescable) may be merged with queued neighbours into a single
// engine pass; synchronous jobs always get a pass of their own so their
// reply is byte-identical to the equivalent in-process ApplyOps call.
type job struct {
	deletes     []relation.TupleID
	sets        []increpair.SetOp
	inserts     []*relation.Tuple
	coalescable bool
	// replay, when set, is a batch shipped by the session's primary: the
	// worker replays it instead of applying the (empty) op slices, and
	// only while the session is still a follower.
	replay *wal.Batch
	// quiesce marks a sentinel with no engine pass of its own: it rides
	// the queue and the commits channel like any batch, and its reply
	// therefore PROVES every job enqueued before it has been applied and
	// committed — including one the worker has dequeued and not yet handed
	// to the committer, which no amount of len(queue) polling can see.
	// Rebalance transfers use it as the positive quiescence signal.
	quiesce bool
	// enqueued is when the job entered the queue (zero for tests that
	// drive dispatch directly); the reply reports the queue wait.
	enqueued time.Time
	// extra counts client batches folded into this job beyond the first
	// (set by the worker while coalescing).
	extra int
	reply chan jobReply
}

type jobReply struct {
	res     *increpair.Result
	deleted int
	seq     uint64
	// snap is the session snapshot right after this job's pass — the
	// pass's own state, not whatever is current when the handler runs.
	snap increpair.Snapshot
	err  error
	// Per-stage timings, surfaced as X-Stage-* response headers (headers
	// only — the body stays byte-identical to an in-process call).
	wait    time.Duration // queue entry → pass start
	engine  time.Duration // the pass itself
	persist time.Duration // pass end → durable and acknowledged
}

// commitItem travels from the worker to the committer. It is either a
// log item, carrying only the batch's record and sent before the pass
// runs, or a result item, carrying the finished pass. The record's ops
// are safe to read downstream while the worker runs the pass: the engine
// never mutates them (TUPLERESOLVE clones arriving tuples before
// insertion), and res/snap are immutable after the pass.
type commitItem struct {
	// log is the batch's WAL record: its ops between the journal version
	// before the pass and the one Check says the pass lands on.
	log      *wal.Batch
	j        job
	batches  int // client batches folded into the pass
	rep      jobReply
	passDone time.Time // when the engine finished; start of persist stage
	// noPass marks an item with no engine pass to record — the quiesce
	// sentinel, a batch Check refuses, a refused or duplicate shipped
	// batch, a write refused by a broken persister: no WAL record,
	// generation, ship or event, only its reply riding the pipeline in
	// order.
	noPass bool
	// rotate is a boundary image the WORKER captured at this exact batch
	// boundary to advance the persister's generation: a routine rotation,
	// or the re-anchor after a pass that failed once Check had accepted
	// it, whose partial effects no WAL record can describe. A follower
	// gets no image for such a pass: it refuses the next batch as a gap,
	// and the shipper heals that with a fresh one.
	rotate *capture
}

// Create opens a session under name and starts its worker. The caller
// supplies a ready increpair.Session (built from the decoded create
// request) and the schema used for wire encoding and attribute lookup;
// wq, when non-nil, overrides the registry's default quota per field
// (see resolveQuota).
func (r *Registry) Create(name string, sess *increpair.Session, schema *relation.Schema, wq *WireQuota) (*hosted, error) {
	return r.register(name, sess, schema, nil, resolveQuota(r.quota, wq), rolePrimary)
}

// register hosts sess under name in the given role. p is nil for a new
// session (a durable registry then anchors generation 0 under a fresh
// persister) and recovery's persister for a re-hosted one, which must
// not write a generation 0 over the recovered files.
func (r *Registry) register(name string, sess *increpair.Session, schema *relation.Schema, p *persister, quota wal.Quota, role int32) (*hosted, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Checked under the shard lock: either this create is observed by
	// Drain's sweep of the shard (and drained with everything else), or
	// it sees draining and refuses. Checked before the lock, a create
	// could slip in after the sweep and leak a live worker past Drain.
	if r.draining.Load() {
		return nil, ErrDraining
	}
	if _, dup := sh.m[name]; dup {
		return nil, ErrExists
	}
	if p == nil && r.persist != nil {
		// Creating the durability sidecar under the shard lock keeps a
		// racing create of the same name from touching the same
		// directory. Creates are rare; the lock is per-shard.
		var err error
		if p, err = newPersister(r.persist, name, sess, walQuota(quota)); err != nil {
			return nil, fmt.Errorf("server: persist %s: %w", name, err)
		}
	}
	h := &hosted{
		name:          name,
		schema:        schema,
		attrs:         schema.Attrs(),
		sess:          sess,
		quota:         newQuotaState(quota),
		ops:           r.ops.child(),
		pers:          p,
		queue:         make(chan job, r.queueDepth),
		commits:       make(chan commitItem, 2*r.queueDepth), // a log and a result item per pass
		committerDone: make(chan struct{}),
		quit:          make(chan struct{}),
		done:          make(chan struct{}),
		views:         newViewCache(sess),
	}
	h.subs.drops = h.ops.sseDropped
	h.subs.max = quota.MaxSubscribers
	// The event log covers only the passes this hosting runs: a resume
	// from an earlier version (before a restart or re-host) is a gap.
	h.subs.dropVersion = sess.Snapshot().Version
	if p != nil {
		// Record the steady-state role on disk so a restart re-hosts the
		// session as what it really was (see roleMarkerName). Failing to
		// record it risks a phantom primary after the next crash, which
		// is a persistence failure like any other.
		if err := writeRoleMarker(p.dir, role == roleFollower); err != nil {
			p.markBroken(err)
		}
	}
	if c := r.cluster; c != nil {
		h.clustered = true
		h.role.Store(role)
		if role == rolePrimary {
			if target := c.shipTarget(name); target != "" {
				h.startShipper(r, target)
			}
		}
	}
	sh.m[name] = h
	go h.run(r)
	go h.committer(r)
	return h, nil
}

// captureSnapshot is the session's full inline image, the quota mark
// stamped in: what replication ships, since a slim header carries no
// rows.
func (h *hosted) captureSnapshot() (*wal.Snapshot, error) {
	snap, err := h.sess.PersistSnapshot(h.name)
	if err != nil {
		return nil, err
	}
	snap.Quota = walQuota(h.quota.cfg)
	return snap, nil
}

// startShipper hooks the session's committer to a follower on target.
func (h *hosted) startShipper(r *Registry, target string) {
	sp := ship.NewShipper(h.name, r.cluster.transport(target), h.captureSnapshot, r.ship)
	h.shipper.Store(&sessionShipper{sp: sp, target: target})
}

// stopShipper tears the current shipping stream down, if any, and
// returns the peer it shipped to ("" when there was none).
func (h *hosted) stopShipper() string {
	ref := h.shipper.Swap(nil)
	if ref == nil {
		return ""
	}
	ref.sp.Close()
	return ref.target
}

// dropReplica asks peer, a follower h no longer ships to, to delete its
// replica of h's session. It is best effort: a failed drop counts as a
// degraded delivery and leaves the stale copy there.
func (h *hosted) dropReplica(r *Registry, peer string) {
	if peer == "" {
		return
	}
	if err := r.cluster.transport(peer).Drop(h.name); err != nil {
		r.ship.Degraded.Add(1)
	}
}

// Get returns the hosted session or ErrNotFound.
func (r *Registry) Get(name string) (*hosted, error) {
	sh := r.shard(name)
	sh.mu.RLock()
	h := sh.m[name]
	sh.mu.RUnlock()
	if h == nil {
		return nil, ErrNotFound
	}
	return h, nil
}

// List returns the hosted sessions in name order.
func (r *Registry) List() []*hosted {
	var out []*hosted
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, h := range sh.m {
			out = append(out, h)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// admit runs the session's quota checks for one write batch BEFORE it
// can occupy a queue slot: a rejected tenant never reaches the worker,
// so its burst cannot starve the other sessions' passes. The relation
// size fed to the cap check is the current snapshot — queued
// not-yet-applied batches are not counted, so the cap is approximate by
// up to one queue's worth, which is the price of keeping admission off
// the worker's lock.
func (r *Registry) admit(h *hosted, tuples, deletes int) error {
	q := h.quota
	if q == nil {
		return nil
	}
	size := 0
	if q.cfg.MaxRelationSize > 0 {
		size = h.sess.Snapshot().Size
	}
	if err := q.admit(size, tuples, deletes, time.Now()); err != nil {
		h.ops.rateLimited.Add(1)
		return err
	}
	return nil
}

// Apply enqueues a synchronous batch on h and waits for its engine
// pass. The reply is exactly what the equivalent in-process ApplyOps
// returned. Taking the resolved session — not a name — matters: the
// caller decoded the batch against h's schema, and a name lookup here
// could resolve a different session if the name was deleted and
// re-created mid-request.
func (r *Registry) Apply(ctx context.Context, h *hosted, deletes []relation.TupleID, sets []increpair.SetOp, inserts []*relation.Tuple) (jobReply, error) {
	if err := h.writable(); err != nil {
		return jobReply{}, err
	}
	if err := r.admit(h, len(inserts), len(deletes)); err != nil {
		return jobReply{}, err
	}
	j := job{deletes: deletes, sets: sets, inserts: inserts, enqueued: time.Now(), reply: make(chan jobReply, 1)}
	if err := h.enqueue(ctx, j); err != nil {
		return jobReply{}, err
	}
	r.batches.Add(1)
	rep, err := h.await(ctx, j)
	if err == nil && errors.Is(rep.err, ErrNotDurable) {
		return jobReply{}, rep.err
	}
	return rep, err
}

// writable refuses a client write at the door, before admission spends a
// quota token on it: on a replica, and on a session whose persistence
// has failed.
func (h *hosted) writable() error {
	if h.role.Load() == roleFollower {
		return ErrFollower
	}
	return h.notDurable()
}

// notDurable is ErrNotDurable naming the failure that broke the session's
// persistence, or nil while it is sound (always for a memory-only or
// purged session).
func (h *hosted) notDurable() error {
	if err := h.pers.failure(); err != nil && !h.purge.Load() {
		return fmt.Errorf("%w: %v", ErrNotDurable, err)
	}
	return nil
}

// enqueue puts a synchronous job on the session's queue, waiting out a
// full one (backpressure bounded by ctx) unless the session shuts down.
func (h *hosted) enqueue(ctx context.Context, j job) error {
	select {
	case h.queue <- j:
		return nil
	case <-h.quit:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

// await waits for an enqueued job's reply to come out of the committer.
func (h *hosted) await(ctx context.Context, j job) (jobReply, error) {
	select {
	case rep := <-j.reply:
		return rep, nil
	case <-h.done:
		// The worker drained the queue and exited; if our job was
		// processed during the drain its reply is already buffered.
		select {
		case rep := <-j.reply:
			return rep, nil
		default:
			return jobReply{}, ErrDraining
		}
	case <-ctx.Done():
		return jobReply{}, ctx.Err()
	}
}

// Ingest enqueues an asynchronous insert-only batch on h. It never
// blocks: a full queue returns ErrBacklog immediately (the caller maps
// it to 429), which is the service's backpressure signal. Like Apply it
// takes the resolved session so the batch lands where it was decoded.
func (r *Registry) Ingest(h *hosted, inserts []*relation.Tuple) error {
	if err := h.writable(); err != nil {
		return err
	}
	if err := r.admit(h, len(inserts), 0); err != nil {
		return err
	}
	j := job{inserts: inserts, coalescable: true, enqueued: time.Now()}
	// Both the quit check and the send happen under the fence, so the
	// worker's final drain cannot slip between them (see hosted.sendMu).
	h.sendMu.RLock()
	defer h.sendMu.RUnlock()
	select {
	case <-h.quit:
		return ErrDraining
	default:
	}
	select {
	case h.queue <- j:
		r.batches.Add(1)
		return nil
	default:
		r.rejected.Add(1)
		return ErrBacklog
	}
}

// Remove drains and closes one session, waiting up to ctx for its queue
// to run dry, and deletes it from the table.
func (r *Registry) Remove(ctx context.Context, name string) error {
	sh := r.shard(name)
	sh.mu.Lock()
	h := sh.m[name]
	if h == nil {
		sh.mu.Unlock()
		return ErrNotFound
	}
	// A deleted session must not resurrect on the next boot: the
	// exiting worker removes its on-disk data after the final drain.
	// purge is set BEFORE the name is freed (still under the shard
	// lock), so a create that wins the freed name happens-after the
	// flag is visible — the draining worker's persister checks it and
	// stops writing into a directory the new tenant now owns.
	h.purge.Store(true)
	delete(sh.m, name)
	sh.mu.Unlock()
	h.quitOnce.Do(func() { close(h.quit) })
	select {
	case <-h.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain shuts the whole registry down gracefully: new creates and new
// work are refused, every session worker finishes its queued batches,
// closes its session, and Drain returns when all workers have exited
// (or ctx expires first).
func (r *Registry) Drain(ctx context.Context) error {
	r.draining.Store(true)
	var hs []*hosted
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for n, h := range sh.m {
			hs = append(hs, h)
			delete(sh.m, n)
		}
		sh.mu.Unlock()
	}
	for _, h := range hs {
		h.quitOnce.Do(func() { close(h.quit) })
	}
	for _, h := range hs {
		select {
		case <-h.done:
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %w", ctx.Err())
		}
	}
	return nil
}

// run is the session worker: the hosted session's single writer and the
// only per-session serialization point. It applies queued jobs in
// arrival order, coalescing runs of async insert-only batches into one
// engine pass, hands each finished pass to the committer, and on quit
// drains the queue before closing the session — no accepted batch is
// dropped. Deferred teardown runs innermost-first: the committer drains
// every pending commit (replies, WAL records, events) before
// persistence is finalized, the session closes, and done is closed,
// which ends every event stream once it has sent the last events.
func (h *hosted) run(r *Registry) {
	defer close(h.done)
	defer h.sess.Close()
	defer h.views.closeAll()
	defer h.finishPersist(r)
	// The shipper stops only after the committer has drained: the last
	// commits may still ship synchronously under ack=quorum. A deleted
	// session's follower then drops its copy. (A transfer stops the
	// shipper before it removes the session, so the copy it promoted
	// stays.)
	defer func() {
		if target := h.stopShipper(); h.purge.Load() {
			h.dropReplica(r, target)
		}
	}()
	defer func() {
		close(h.commits)
		<-h.committerDone
	}()
	for {
		select {
		case j := <-h.queue:
			h.dispatch(r, j)
		case <-h.quit:
			// Fence out async producers: once this Lock is acquired,
			// every in-flight Ingest has either enqueued (and is swept
			// below) or will observe the closed quit and refuse. Sync
			// applies may still race the sweep, but they detect an
			// unprocessed job through done and fail loudly.
			h.sendMu.Lock()
			h.sendMu.Unlock() //nolint:staticcheck // barrier, not critical section
			for {
				select {
				case j := <-h.queue:
					h.dispatch(r, j)
				default:
					return
				}
			}
		}
	}
}

// dispatch runs one queued job, first folding any directly following
// coalescable jobs into it: their inserts concatenate in arrival order
// and the whole run is repaired by a single engine pass. Only what is
// already queued folds; an empty queue starts the pass. A synchronous
// job is never folded — its reply must match a dedicated in-process call
// — so a sync job encountered while folding just flushes the accumulated
// pass and runs next.
func (h *hosted) dispatch(r *Registry, j job) {
	for j.coalescable {
		var next job
		select {
		case next = <-h.queue:
		default:
			h.apply(r, j, 1+j.extra)
			return
		}
		if next.coalescable {
			j.inserts = append(j.inserts, next.inserts...)
			j.extra++
			r.coalesced.Add(1)
			continue
		}
		h.apply(r, j, 1+j.extra)
		j = next
	}
	h.apply(r, j, 1)
}

// apply runs one engine pass for job j (which may represent several
// coalesced client batches). A batch Check refuses gets no pass: like a
// refused replay it is answered through the pipeline with nothing
// logged, anchored, shipped or published. Otherwise the worker first
// hands the committer the batch's WAL record, which does not depend on
// the pass: the ops between the journal version before the pass and the
// one Check says the pass lands on. The committer appends and syncs it
// while the pass runs, so a reply waits for the longer of the two rather
// than their sum. The result goes to the committer after the pass; the
// reply, ship and event happen there, overlapped with this worker's next
// pass. Pass order fixes seq and the journal-version order, the commits
// channel is FIFO, and record N+1 is sent only after result N, so the
// committer appends record N+1 after it has rotated at boundary N. A
// shipped batch (j.replay) is the same pass with the shipped record, so
// shipped batches, a promotion and the first local write after it are
// totally ordered by the queue.
func (h *hosted) apply(r *Registry, j job, batches int) {
	if j.quiesce {
		h.commits <- commitItem{j: j, noPass: true}
		return
	}
	refuse := func(err error) { h.commits <- commitItem{j: j, noPass: true, rep: jobReply{err: err}} }
	// A batch queued before the persister broke.
	if err := h.notDurable(); err != nil {
		refuse(err)
		return
	}
	var wait time.Duration
	if !j.enqueued.IsZero() {
		wait = time.Since(j.enqueued)
	}
	deletes, sets, inserts, rec := j.deletes, j.sets, j.inserts, j.replay
	if rec != nil {
		var (
			applies bool
			err     error
		)
		if h.role.Load() != roleFollower {
			// Promoted (or never a replica) since the frame was accepted:
			// the primary's stream must stop, not resync.
			err = errReplicaConflict
		} else if deletes, sets, inserts, applies, err = h.sess.CheckReplay(rec); err != nil {
			// A gap, undecodable ops, divergence: all heal the same way —
			// the primary reships a full image that replaces this session.
			err = fmt.Errorf("%w: %v", errReplicaGap, err)
		}
		if err != nil || !applies {
			// Refused, or a duplicate the cursor already covers.
			refuse(err)
			return
		}
	} else {
		landing, err := h.sess.Check(deletes, sets, inserts)
		if err != nil {
			// ApplyOps would refuse it with this same error, mutating nothing.
			h.ops.errorBatches.Add(1)
			refuse(err)
			return
		}
		// Worker-only read of the pre-pass version, so no lock needed.
		rec = &wal.Batch{PrevVersion: h.sess.Snapshot().Version, Version: landing,
			Ops: increpair.OpsToDeltas(deletes, sets, inserts)}
	}
	h.commits <- commitItem{log: rec}
	searched := h.sess.IndexStats()
	start := time.Now()
	res, deleted, err := h.sess.ApplyOps(deletes, sets, inserts)
	if j.replay != nil {
		if err != nil {
			err = fmt.Errorf("%w: %v", errReplicaGap, err)
		} else {
			r.replicaApplied.Add(1)
		}
	}
	snap := h.sess.Snapshot()
	engine := time.Since(start)
	h.ops.passLat.Observe(engine.Seconds())
	h.ops.foldSize.Observe(float64(batches))
	h.ops.countSearch(searched, h.sess.IndexStats())
	var seq uint64
	if err == nil {
		seq = h.seq.Add(1)
		r.passes.Add(1)
		r.tuples.Add(uint64(len(res.Inserted)))
	} else {
		h.ops.errorBatches.Add(1)
	}
	item := commitItem{
		j: j, batches: batches, passDone: time.Now(),
		rep: jobReply{res: res, deleted: deleted, seq: seq, snap: snap, err: err, wait: wait, engine: engine},
	}
	// A rotation boundary must be captured at THIS batch boundary; by the
	// time the committer handles the item the worker may be passes ahead,
	// so the capture cannot be deferred downstream.
	if h.pers != nil && !h.purge.Load() {
		item.rotate = h.pers.boundary(err != nil)
	}
	h.commits <- item
}

// committer is the pipeline stage downstream of the session worker. On a
// log item it appends the batch's WAL record and, under -fsync batch,
// syncs it, while the worker runs the batch's pass. On the result item
// that follows it rotates at a boundary the worker captured, ships,
// sends the client reply and publishes the pass event. The reply happens
// strictly after the record is durable, so fsync-before-ack holds per
// batch, and a batch whose record could not be made durable is answered
// with ErrNotDurable and shipped nowhere. A follower's replayed passes
// are committed the same way.
//
// A purged session (Remove in progress) stops persisting immediately:
// its directory is doomed — and may already belong to a re-created
// session of the same name — so drained batches apply in memory only
// and their waiting clients are still answered.
func (h *hosted) committer(r *Registry) {
	defer close(h.committerDone)
	// b is the record of the pass whose result comes next, and logErr
	// what logging it returned.
	var (
		b      *wal.Batch
		logErr error
	)
	for item := range h.commits {
		if item.log != nil {
			b, logErr = item.log, h.logRecord(item.log)
			continue
		}
		if item.noPass {
			// Everything before it in the pipeline is applied AND
			// committed; answer and move on.
			if item.j.reply != nil {
				item.j.reply <- item.rep
			}
			continue
		}
		if logErr != nil && item.rep.err == nil {
			item.rep.err = fmt.Errorf("%w: %v", ErrNotDurable, logErr)
		}
		if item.rotate != nil && !h.purge.Load() {
			h.pers.rotate(item.rotate)
			item.rotate = nil
		}
		// Unconsumed capture — a purge raced in. Release the store's flush
		// lease so the next boundary can begin one.
		item.rotate.abort()
		// Replication, strictly after the local fsync: a follower can
		// never hold a batch the primary's own disk does not. ack=quorum
		// ships synchronously — the client's reply waits for the
		// follower's acknowledgement — while ack=leader hands the frame
		// to the background drain. Ship failures degrade (counted in the
		// shipper's stats), never fail the write: the primary keeps
		// serving through a dead follower, and the stream heals by
		// snapshot once the follower is back. A failed pass ships
		// nothing; the follower refuses the next batch as a gap.
		if ref := h.shipper.Load(); ref != nil && item.rep.err == nil {
			if r.cluster != nil && r.cluster.ack == AckQuorum {
				_ = ref.sp.ShipSync(b)
			} else {
				ref.sp.EnqueueBatch(b)
			}
		}
		item.rep.persist = time.Since(item.passDone)
		if item.j.reply != nil {
			item.j.reply <- item.rep
		}
		// A pinned view accrues cost only when a pass dirties pages, so
		// idle views expire here, at the next pass, failed or not.
		h.views.prune()
		if item.rep.err != nil {
			continue
		}
		rep := item.rep
		h.subs.publish(Event{
			Session:   h.name,
			Seq:       rep.seq,
			Coalesced: item.batches,
			Inserted:  len(rep.res.Inserted),
			Deleted:   rep.deleted,
			Dirty:     changedCells(rep.res, h.attrs),
			Snapshot:  encodeSnapshot(rep.snap),
		})
	}
}

// logRecord is the committer's work on a log item: append b to the WAL
// and, under -fsync batch, sync it. A memory-only or purged session
// logs nothing. An error has broken the persister.
func (h *hosted) logRecord(b *wal.Batch) error {
	if h.pers == nil || h.purge.Load() {
		return nil
	}
	if err := h.pers.appendBatch(b); err != nil || h.pers.cfg.Fsync != FsyncBatch {
		return err
	}
	appended := time.Now()
	if err := h.pers.syncNow(); err != nil {
		return err
	}
	h.ops.walLag.Observe(time.Since(appended).Seconds())
	return nil
}

// finishPersist ends the session's durability on worker exit: purge
// (Remove) deletes the on-disk data, drain keeps it for the next boot.
// The deletion happens under the name's shard lock and only if this
// hosted session still owns the name: Remove frees the name before the
// worker finishes draining (it may wait out a context and return
// early), so a client can have re-created the session by now — and the
// new tenant's freshly written directory must not be swept away by the
// old worker.
func (h *hosted) finishPersist(r *Registry) {
	if h.pers == nil {
		return
	}
	if !h.purge.Load() {
		h.pers.close()
		return
	}
	sh := r.shard(h.name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur := sh.m[h.name]; cur != nil && cur != h {
		// Superseded: a new session took the name, and newPersister
		// rebuilt the directory from scratch under this same lock.
		// Close our handles; the files they point to were already
		// unlinked by that rebuild.
		h.pers.close()
		return
	}
	h.pers.destroy()
}
