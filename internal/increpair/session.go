package increpair

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
	"cfdclean/internal/store"
)

var errClosed = errors.New("increpair: session is closed")

// Session is a long-lived streaming repair session — the paper's online
// scenario (§5) as a stateful object. NewSession opens a cleaner over a
// database D: it builds the working copy and the delta-maintained
// violation store once, cleans D with the §5.3 driver if it is dirty,
// and then keeps the engine alive. Each ApplyDelta pushes a ΔD batch
// through INCREPAIR against the maintained state, so the per-batch cost
// is O(|ΔD|) — the base is never rescanned, no detector is ever rebuilt,
// and TUPLERESOLVE's donor indices carry over from batch to batch,
// maintained in place under inserts, deletes and updates alike.
//
// # Concurrency contract
//
// A Session is safe for concurrent use under a single-writer,
// many-reader discipline that the Session itself enforces:
//
//   - Mutations (ApplyDelta, ApplyOps, Close) serialize on an internal
//     mutex. Any goroutine may call them; at most one engine pass runs
//     at a time, and passes are applied in lock-acquisition order. The
//     repaired output for a given call sequence is therefore identical
//     to issuing the same calls from one goroutine.
//   - Snapshot reads (Snapshot, Satisfied, Stats) are lock-free: after
//     every mutation the writer publishes an immutable Snapshot via an
//     atomic pointer, stamped with the relation journal's NextID
//     watermark and mutation Version. Readers load the pointer and
//     never contend with a writer, observe a half-applied batch, or
//     block behind a long engine pass.
//   - Structure reads go through a ReadView (Dump is one): the writer
//     lock is held only to pin the relation and, when the store is
//     unsatisfied, to capture its violation listing (one Detect: the
//     dirty buckets' members plus a sort of vio(D) entries; nothing
//     between batches). The view then reads without the lock.
//   - Current returns the live relation without locking; it is safe
//     only when the caller can rule out concurrent mutations (after
//     Close, or in single-goroutine use).
type Session struct {
	// mu serializes every mutating entry point and every structure read;
	// snapshot reads never take it.
	mu sync.Mutex
	e  *engine

	initial *Result
	batches int
	applied int
	deleted int
	cost    float64
	changes int
	closed  bool

	// snap is the last published state; rewritten (never mutated) under
	// mu after each mutation, loaded lock-free by readers.
	snap atomic.Pointer[Snapshot]

	// sigmaText caches the persisted form of the constraint set (see
	// formatSigma): sigma never changes over a session's life, and the
	// verification behind it is too expensive to repeat on every
	// snapshot rotation. Guarded by mu.
	sigmaText string

	// st is the attached page store, nil until a durable host attaches
	// one (see AttachStore). The session does not own its lifecycle — the
	// hosting persister creates, opens and closes it. Guarded by mu.
	st *store.Disk
}

// Snapshot is an immutable, atomically published view of a Session's
// state, the unit of the lock-free read path. Watermark and Version come
// from the relation's mutation journal: Watermark is the next tuple id
// to be assigned (it advances only on inserts and names the insertion
// history), Version counts every mutation, so two Snapshots with equal
// Version describe the identical relation state.
type Snapshot struct {
	// Watermark is the journal's NextID at publication time.
	Watermark relation.TupleID
	// Version is the journal's mutation counter at publication time.
	Version uint64
	// Size is the number of tuples in the session's relation.
	Size int
	// Batches counts completed ApplyDelta/ApplyOps calls.
	Batches int
	// Inserted counts tuples repaired and inserted across all batches.
	Inserted int
	// Deleted counts tuples removed across all batches.
	Deleted int
	// Cost is the cumulative repair cost over all batches (§3.3),
	// excluding the initial cleaning.
	Cost float64
	// Changes is the cumulative count of modified cells over all
	// batches, excluding the initial cleaning.
	Changes int
	// Violations is the maintained vio(D) total; an INCREPAIR invariant
	// keeps it 0 after every completed batch.
	Violations int
	// Satisfied reports Violations == 0.
	Satisfied bool
	// Closed reports whether the session has been closed.
	Closed bool
}

// SetOp is one cell update in an ApplyOps batch: set attribute Attr of
// the existing tuple ID to Value. The updated tuple is re-cleaned — it
// is removed and its modified version re-enters through TUPLERESOLVE, so
// an update that introduces violations is repaired like any arriving
// tuple (possibly onto a different value than the one requested).
type SetOp struct {
	ID    relation.TupleID
	Attr  int
	Value relation.Value
}

// NewSession opens a streaming repair session over d. The input is
// cloned, never modified. If d violates sigma, the §5.3 driver repairs
// it first; Initial reports that cleaning. opts may be nil.
func NewSession(d *relation.Relation, sigma []*cfd.Normal, opts *Options) (*Session, error) {
	o := opts.withDefaults()
	e, err := newEngine(d.Clone(), sigma, o)
	if err != nil {
		return nil, err
	}
	s := &Session{e: e}
	if !e.store.Satisfied() {
		delta := e.extractDirty()
		res, err := e.insertBatch(delta)
		if err != nil {
			e.close()
			return nil, err
		}
		s.initial = res
	}
	s.publish()
	return s, nil
}

// ApplyDelta repairs one ΔD batch against the session's current state
// and inserts the repaired tuples. The returned Result describes this
// batch alone; Result.Repair is the session's live relation.
func (s *Session) ApplyDelta(delta []*relation.Tuple) (*Result, error) {
	res, _, err := s.ApplyOps(nil, nil, delta)
	return res, err
}

// Check validates one ApplyOps batch against the session's current state
// without mutating anything, and returns the journal version the batch's
// pass will land on. ApplyOps runs this same check first, so Check
// refuses exactly what ApplyOps refuses. The landing is fixed by the
// batch's shape alone: one mutation per delete and per insert, two per
// updated tuple (its removal and its re-entry), and under ByViolations
// two more per arriving tuple (the ranking probe's insert and delete).
// That is what lets a caller log the batch while its pass runs.
func (s *Session) Check(deletes []relation.TupleID, sets []SetOp, inserts []*relation.Tuple) (landing uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkLocked(deletes, sets, inserts)
}

// checkLocked is Check under s.mu.
func (s *Session) checkLocked(deletes []relation.TupleID, sets []SetOp, inserts []*relation.Tuple) (uint64, error) {
	if s.closed {
		return 0, errClosed
	}
	arity := s.e.arity
	dropped := make(map[relation.TupleID]bool, len(deletes))
	for _, id := range deletes {
		if s.e.repr.Tuple(id) == nil {
			return 0, fmt.Errorf("increpair: delete of unknown tuple id %d", id)
		}
		if dropped[id] {
			return 0, fmt.Errorf("increpair: duplicate delete of tuple id %d", id)
		}
		dropped[id] = true
	}
	updatedIDs := make(map[relation.TupleID]bool, len(sets))
	for _, op := range sets {
		if op.Attr < 0 || op.Attr >= arity {
			return 0, fmt.Errorf("increpair: set on tuple %d addresses attribute %d of a %d-attribute schema", op.ID, op.Attr, arity)
		}
		if dropped[op.ID] {
			return 0, fmt.Errorf("increpair: set on tuple %d deleted in the same batch", op.ID)
		}
		if s.e.repr.Tuple(op.ID) == nil {
			return 0, fmt.Errorf("increpair: set on unknown tuple id %d", op.ID)
		}
		updatedIDs[op.ID] = true
	}
	var seenInsertIDs map[relation.TupleID]bool // made at the first explicit id
	hasAuto, hasAboveWatermark := false, false
	for i, t := range inserts {
		if len(t.Vals) != arity {
			return 0, fmt.Errorf("increpair: insert %d has arity %d, want %d", i, len(t.Vals), arity)
		}
		if t.W != nil && len(t.W) != arity {
			return 0, fmt.Errorf("increpair: insert %d has %d weights, want %d", i, len(t.W), arity)
		}
		// The cost model takes w(t,A) in [0,1] (§3.2); written to fail NaN.
		for a, w := range t.W {
			if !(0 <= w && w <= 1) {
				return 0, fmt.Errorf("increpair: insert %d has weight %v on attribute %s, outside [0,1]", i, w, s.e.repr.Schema().Attr(a))
			}
		}
		if t.ID == 0 {
			hasAuto = true
			continue
		}
		if t.ID >= s.e.repr.NextID() {
			hasAboveWatermark = true
		}
		// An explicit id may only reuse a slot this same batch frees by
		// deletion; updated tuples re-enter under their own id, so an
		// insert claiming it would collide mid-pass.
		if seenInsertIDs[t.ID] {
			return 0, fmt.Errorf("increpair: duplicate insert id %d in batch", t.ID)
		}
		if seenInsertIDs == nil {
			seenInsertIDs = make(map[relation.TupleID]bool, len(inserts))
		}
		seenInsertIDs[t.ID] = true
		if updatedIDs[t.ID] {
			return 0, fmt.Errorf("increpair: insert id %d is updated in the same batch", t.ID)
		}
		if s.e.repr.Tuple(t.ID) != nil && !dropped[t.ID] {
			return 0, fmt.Errorf("increpair: insert id %d already exists", t.ID)
		}
	}
	// A batch may carry explicit ids above the watermark (a caller
	// choosing fresh ids, as StreamBatches does) or id-less inserts, but
	// not both: the auto-assigner hands out ids from the watermark up, so
	// mixing lets an id-less tuple take an explicit tuple's slot first
	// and the latecomer would be silently renumbered mid-pass.
	if hasAuto && hasAboveWatermark {
		return 0, fmt.Errorf("increpair: batch mixes id-less inserts with explicit ids at or beyond the watermark %d", s.e.repr.NextID())
	}
	arriving := uint64(len(updatedIDs) + len(inserts))
	bumps := uint64(len(deletes)) + uint64(len(updatedIDs)) + arriving
	if s.e.opts.Ordering == ByViolations {
		bumps += 2 * arriving
	}
	return s.e.repr.Version() + bumps, nil
}

// ApplyOps applies one mixed mutation batch in a single engine pass:
// deletes first (deletions never introduce CFD violations, §3.3), then
// cell updates, then inserts. Updates are re-cleaned: each updated tuple
// is removed, its modified version keeps its id and joins the inserts as
// ΔD, and the whole ΔD is repaired by one INCREPAIR pass in the
// session's configured ordering. It returns the pass's Result and the
// number of tuples deleted (updated tuples are not counted as deleted).
//
// The batch is validated by Check before anything mutates: unknown delete or
// update ids, out-of-range attributes, updates targeting a tuple
// deleted in the same batch, bad insert arities, weight vectors of the
// wrong length or with a weight outside [0,1] (NaN included), and
// explicit insert ids that collide (with live tuples, with same-batch
// updates, or with each other) all fail with the session state
// untouched. An explicit insert id below the watermark (NextID) may
// name any currently-unused slot — one freed by an earlier batch, or by
// a deletion in this same batch; explicit ids at or beyond the
// watermark (fresh ids the caller chose) must not be mixed with id-0
// inserts in one batch, since the auto-assigner could take their slots
// first; id 0 lets the relation assign the next id. A pass that lands on
// any journal version but the one Check promised is an internal error.
func (s *Session) ApplyOps(deletes []relation.TupleID, sets []SetOp, inserts []*relation.Tuple) (*Result, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	landing, err := s.checkLocked(deletes, sets, inserts)
	if err != nil {
		return nil, 0, err
	}

	for _, id := range deletes {
		s.e.repr.Delete(id)
	}

	// Group cell updates per tuple (in first-appearance order), apply
	// them to a detached clone, and remove the original: the modified
	// tuple re-enters through the repair pass under its old id.
	var updated []*relation.Tuple
	mods := make(map[relation.TupleID]*relation.Tuple, len(sets))
	for _, op := range sets {
		c := mods[op.ID]
		if c == nil {
			c = s.e.repr.Tuple(op.ID).Clone()
			mods[op.ID] = c
			updated = append(updated, c)
		}
		c.Vals[op.Attr] = op.Value
	}
	for _, c := range updated {
		s.e.repr.Delete(c.ID)
	}

	delta := make([]*relation.Tuple, 0, len(updated)+len(inserts))
	delta = append(delta, updated...)
	delta = append(delta, inserts...)

	res, err := s.e.insertBatch(delta)
	if err == nil && s.e.repr.Version() != landing {
		err = fmt.Errorf("increpair: internal error: pass landed on journal version %d, Check promised %d", s.e.repr.Version(), landing)
	}
	if err != nil {
		// The pass may have partially applied; republish so snapshot
		// readers see the true state rather than the last good batch.
		s.publish()
		return nil, 0, err
	}
	s.batches++
	s.applied += len(res.Inserted)
	s.deleted += len(deletes)
	s.cost += res.Cost
	s.changes += res.Changes
	s.publish()
	return res, len(deletes), nil
}

// publish stores a fresh immutable Snapshot; callers hold mu (or, in
// NewSession, exclusive ownership).
func (s *Session) publish() {
	s.snap.Store(&Snapshot{
		Watermark:  s.e.repr.NextID(),
		Version:    s.e.repr.Version(),
		Size:       s.e.repr.Size(),
		Batches:    s.batches,
		Inserted:   s.applied,
		Deleted:    s.deleted,
		Cost:       s.cost,
		Changes:    s.changes,
		Violations: s.e.store.TotalViolations(),
		Satisfied:  s.e.store.Satisfied(),
		Closed:     s.closed,
	})
}

// Snapshot returns the last published session state. It is lock-free:
// concurrent ApplyOps calls never block it and it never observes a
// half-applied batch.
func (s *Session) Snapshot() Snapshot { return *s.snap.Load() }

// Current returns the session's live repaired relation: D's clean core
// plus every repaired batch so far. It does not lock; callers must not
// use it while another goroutine may be applying batches (use Dump for
// a consistent serialization, or Close first).
func (s *Session) Current() *relation.Relation { return s.e.repr }

// IndexStats returns the work counters of the session's similarity search
// and LHS indices. Like the other structure reads it briefly takes the
// writer lock.
func (s *Session) IndexStats() IndexStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.indexStats()
}

// Initial reports the §5.3 cleaning NewSession performed on a dirty
// input, or nil if the input already satisfied sigma.
func (s *Session) Initial() *Result { return s.initial }

// Satisfied reports whether the session's relation satisfied sigma as of
// the last published snapshot, in O(1) and lock-free. It is an invariant
// of INCREPAIR that this holds after every completed batch.
func (s *Session) Satisfied() bool { return s.snap.Load().Satisfied }

// Stats returns cumulative session counters from the last published
// snapshot (lock-free): batches applied, tuples inserted, total repair
// cost and changed cells (excluding the initial cleaning).
func (s *Session) Stats() (batches, tuples int, cost float64, changes int) {
	sn := s.snap.Load()
	return sn.Batches, sn.Inserted, sn.Cost, sn.Changes
}

// Dump writes the session's current relation as CSV from a pinned
// ReadView: the session lock is held only for the pin handoff, so a
// large dump no longer stalls concurrent ApplyOps. The serialization is
// consistent at one journal version and the row order is deterministic
// for a deterministic call sequence (see extractDirty on why physical
// order is pinned).
func (s *Session) Dump(w io.Writer) error {
	v, err := s.ReadView()
	if err != nil {
		return err
	}
	defer v.Release()
	return v.WriteCSV(w)
}

// Close detaches the session's violation store from its relation. The
// relation remains valid (and is returned by Current); further ApplyOps
// calls fail. Close is idempotent and safe concurrently with readers
// and writers.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.e.close()
	s.publish()
}
