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
// primary's worker applies client batches; a follower's replays the
// batches its primary ships (ReplicateBatch) until promoted. register
// sets the role and Promote's follower → primary swap is its only change.
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
// For each job the worker hands the committer one commit item, carrying
// the batch's WAL record, before it runs the pass, and completes it with
// the pass's result after; the committer delta-encodes, appends and
// fsyncs the record — while the pass runs, when a scheduler slot is free
// for it (see apply) — then acknowledges the client and publishes the
// pass event. A session changes state only through this pipeline (see
// waitQuiesce and finishPersist). HTTP handlers
// never run an engine pass themselves; they decode and enqueue, then
// either wait for the committer's reply (apply) or return immediately
// (ingest).
type Registry struct {
	queueDepth int

	// persist, when non-nil, is the server's options with DataDir set:
	// every session gets a durability sidecar (WAL + snapshots under it;
	// see persist.go). nil hosts sessions purely in memory.
	persist *Options

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
	passes, batches, coalesced, rejected, tuples, walBytes           metrics.Counter
	dumpRows, dumpBytes, dumpNanos                                   metrics.Counter
	dumpPagesCached, dumpPagesEncoded                                metrics.Counter
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
	// session's on-disk data instead of keeping it for the next boot. Set
	// by Remove, never by Drain, and only before quit closes, so the
	// worker reads it after the last job.
	pers  *persister
	purge bool

	queue chan job
	// commits carries one item per job, in queue order, from the worker to
	// the committer: the downstream pipeline stage that encodes, logs,
	// syncs, replies and publishes. Closed by the exiting worker after the
	// final drain; committerDone is closed by the exiting committer.
	commits       chan *commitItem
	committerDone chan struct{}
	// quit is closed to ask the worker to drain and exit; done is closed
	// by the worker after the queue is drained, the name freed and the
	// session closed.
	quit     chan struct{}
	done     chan struct{}
	quitOnce sync.Once
	// sendMu fences async enqueues against the worker's final drain: an
	// ingest holds the read side across its check-quit-then-send window,
	// and the exiting worker (after quit is closed) takes the write side.
	// Every 202-accepted batch is therefore either swept or never
	// accepted. Synchronous applies don't need the fence: they wait on a
	// reply and detect an unprocessed job via done.
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
	// lock; the target rides along for listings.
	shipper atomic.Pointer[sessionShipper]
}

// sessionShipper pairs a live shipping stream with its target address.
type sessionShipper struct {
	sp     *ship.Shipper
	target string
}

// job is one unit of queued work, and becomes one commit item. Async
// insert-only jobs (reply == nil, coalescable) may be merged with queued
// neighbours into a single engine pass; synchronous jobs always get a
// pass of their own so their reply is byte-identical to the equivalent
// in-process ApplyOps call.
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
	// to the committer (see waitQuiesce).
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

// commitItem is one job's passage from the worker to the committer, sent
// before the job's pass (see apply). A job that runs no pass — the quiesce
// sentinel, a batch Check refuses, a refused or duplicate shipped batch,
// a write refused by a broken persister — has no record:
// no WAL append, generation, ship or event, only its reply riding the
// pipeline in order. The record's ops are safe to read downstream while
// the worker runs the pass: the engine never mutates them (TUPLERESOLVE
// clones arriving tuples before insertion), and res/snap are immutable
// after the pass.
type commitItem struct {
	// log is the batch's WAL record; nil when the job runs no pass.
	log *wal.Batch
	j   job
	// passed is closed by the worker once the fields below are set; the
	// committer reads none of them before.
	passed   chan struct{}
	batches  int // client batches folded into the pass
	rep      jobReply
	passDone time.Time // when the engine finished; start of persist stage
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
// request), the schema used for wire encoding and attribute lookup, and
// the session's quota (see sessionQuota).
func (r *Registry) Create(name string, sess *increpair.Session, schema *relation.Schema, quota wal.Quota) (*hosted, error) {
	return r.register(name, sess, schema, nil, quota, rolePrimary)
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
		if p, err = newPersister(r.persist, name, sess, quota); err != nil {
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
		commits:       make(chan *commitItem, r.queueDepth), // one item per job the queue holds
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

// captureSnapshot is the session's full inline image, its quota
// stamped in: what replication ships, since a slim header carries no
// rows.
func (h *hosted) captureSnapshot() (*wal.Snapshot, error) {
	snap, err := h.sess.PersistSnapshot(h.name)
	if err != nil {
		return nil, err
	}
	snap.Quota = h.quota.cfg
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
// re-created mid-request. A batch the worker refuses because the
// session's persister broke is returned as the error, like the same
// refusal at the door.
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
// persistence, or nil while it is sound (always for a memory-only
// session).
func (h *hosted) notDurable() error {
	if err := h.pers.failure(); err != nil {
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
	// The quit check and the send happen under the fence, so the worker's
	// final drain cannot slip between them (see hosted.sendMu).
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

// Remove asks one session's worker to drain its queue, delete its
// on-disk data (a deleted session must not resurrect on the next boot)
// and exit, waiting up to ctx. The name stays taken — a create of it is
// ErrExists, work sent to it ErrDraining — until the exiting worker frees
// it (finishPersist). A session already shutting down is ErrDraining.
func (r *Registry) Remove(ctx context.Context, name string) error {
	h, err := r.Get(name)
	if err != nil {
		return err
	}
	removing := false
	h.quitOnce.Do(func() {
		h.purge, removing = true, true
		close(h.quit)
	})
	if !removing {
		return ErrDraining
	}
	select {
	case <-h.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain shuts the whole registry down gracefully: new creates and new
// work are refused, every session worker finishes its queued batches,
// closes its session and frees its name, and Drain returns when all
// workers have exited (or ctx expires first).
func (r *Registry) Drain(ctx context.Context) error {
	r.draining.Store(true)
	hs := r.List()
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
// persistence is finalized and the name freed, the session closes, and
// done is closed, which ends every event stream once it has sent the
// last events.
func (h *hosted) run(r *Registry) {
	defer close(h.done)
	defer h.sess.Close()
	defer h.views.closeAll()
	defer h.finishPersist(r)
	// The shipper stops only after the committer has drained: the last
	// commits may still ship synchronously under ack=quorum. A deleted
	// session's follower then drops its copy.
	defer func() {
		if target := h.stopShipper(); h.purge {
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

// apply runs job j (which may represent several coalesced client batches)
// and hands it to the committer as one commit item, sent before the pass
// with the batch's WAL record, which does not depend on the pass: the ops
// between the journal version before the pass and the one Check says the
// pass lands on. A job that runs no pass goes with its reply and no
// record. The committer appends and syncs the record while the pass runs
// only when a Go scheduler slot (a GOMAXPROCS processor) is free for it;
// then a reply waits for the longer of the two, not their sum. When the
// pass holds one processor and handlers serving reads hold the rest, the
// committer starts when one frees, often as the pass ends, and the reply
// waits for about the sum: on serve_mixed at GOMAXPROCS=2 the append
// began a median 1.1 ms into a 1.2–1.4 ms pass (EXPERIMENTS.md "PR 56").
// Appending on the worker instead measured slower there, so the hand-off
// stays. The pass's outcome completes the item (passed); the reply, ship
// and event happen in the committer, overlapped with this worker's next
// pass. Pass order fixes seq and the journal-version order, the commits
// channel is FIFO, and the committer finishes item N — rotation at
// boundary N included — before it appends record N+1. A shipped batch
// (j.replay) is the same pass with the shipped record, so shipped
// batches, a promotion and the first local write after it are totally
// ordered by the queue.
func (h *hosted) apply(r *Registry, j job, batches int) {
	item := &commitItem{j: j, batches: batches, passed: make(chan struct{})}
	defer close(item.passed)
	var wait time.Duration
	if !j.enqueued.IsZero() {
		wait = time.Since(j.enqueued)
	}
	deletes, sets, inserts, rec := j.deletes, j.sets, j.inserts, j.replay
	err := h.notDurable() // a batch queued before the persister broke
	switch {
	case j.quiesce || err != nil:
		rec = nil
	case rec != nil:
		var applies bool
		if h.role.Load() != roleFollower {
			// Promoted (or never a replica) since the frame was accepted:
			// the primary's stream must stop, not resync.
			err = errReplicaConflict
		} else if deletes, sets, inserts, applies, err = h.sess.CheckReplay(rec); err != nil {
			// A gap, undecodable ops, divergence: all heal the same way —
			// the primary reships a full image that replaces this session.
			err = fmt.Errorf("%w: %v", errReplicaGap, err)
		}
		if !applies {
			rec = nil // refused, or a duplicate the cursor already covers
		}
	default:
		var landing uint64
		if landing, err = h.sess.Check(deletes, sets, inserts); err != nil {
			// ApplyOps would refuse it with this same error, mutating nothing.
			h.ops.errorBatches.Add(1)
			break
		}
		// Worker-only read of the pre-pass version, so no lock needed.
		rec = &wal.Batch{PrevVersion: h.sess.Snapshot().Version, Version: landing,
			Ops: increpair.OpsToDeltas(deletes, sets, inserts)}
	}
	item.log, item.rep.err = rec, err
	h.commits <- item
	if rec == nil {
		return
	}
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
	item.passDone = time.Now()
	item.rep = jobReply{res: res, deleted: deleted, seq: seq, snap: snap, err: err, wait: wait, engine: engine}
	// A rotation boundary must be captured at THIS batch boundary; by the
	// time the committer handles the item the worker may be passes ahead,
	// so the capture cannot be deferred downstream.
	if h.pers != nil {
		item.rotate = h.pers.boundary(err != nil)
	}
}

// committer is the pipeline stage downstream of the session worker, one
// commit item at a time. It appends the item's WAL record and, under
// -fsync batch, syncs it, while the worker runs the batch's pass; then it
// waits for the pass (passed), rotates at a boundary the worker captured,
// ships, sends the client reply and publishes the pass event. The reply
// happens strictly after the record is durable, so fsync-before-ack holds
// per batch, and a batch whose record could not be made durable is
// answered with ErrNotDurable and shipped nowhere. An item with no record
// is only answered. A follower's replayed passes are committed the same
// way. A session being removed still persists what it drains: the name,
// and so the directory, stays its own until its worker exits.
func (h *hosted) committer(r *Registry) {
	defer close(h.committerDone)
	for item := range h.commits {
		var logErr error
		if item.log != nil {
			logErr = h.logRecord(r, item.log)
		}
		<-item.passed
		if item.log == nil {
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
		if item.rotate != nil {
			h.pers.rotate(item.rotate)
		}
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
				_ = ref.sp.ShipSync(item.log)
			} else {
				ref.sp.EnqueueBatch(item.log)
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

// logRecord is the committer's work on an item's record: append b to the
// WAL, counting the bytes, and, under -fsync batch, sync it. A
// memory-only session logs nothing. An error has broken the persister.
func (h *hosted) logRecord(r *Registry, b *wal.Batch) error {
	if h.pers == nil {
		return nil
	}
	n, err := h.pers.appendBatch(b)
	r.walBytes.Add(uint64(n))
	if err != nil || h.pers.cfg.Fsync != FsyncBatch {
		return err
	}
	appended := time.Now()
	if err := h.pers.syncNow(); err != nil {
		return err
	}
	h.ops.walLag.Observe(time.Since(appended).Seconds())
	return nil
}

// finishPersist ends the session's durability on worker exit — a Remove
// (purge) deletes the on-disk data, a Drain keeps it for the next boot —
// and then frees the name under its shard lock. Until here the name, and
// so the directory, is this session's alone: a create of it is refused,
// so no new tenant's files can be swept away by the old worker.
func (h *hosted) finishPersist(r *Registry) {
	switch {
	case h.pers == nil:
	case h.purge:
		h.pers.destroy()
	default:
		h.pers.close()
	}
	sh := r.shard(h.name)
	sh.mu.Lock()
	delete(sh.m, h.name)
	sh.mu.Unlock()
}
