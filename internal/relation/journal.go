package relation

import "slices"

// The mutation journal turns a Relation into a stream of typed deltas.
// Inserts, deletes and Set calls notify every subscriber synchronously,
// after the relation's own bookkeeping (tuple table, interned ids, active
// domains) is consistent with the new state. Subscribers see mutations in
// program order; there is no buffering and no goroutine hand-off, so a
// subscriber's view is never stale. This is the substrate that lets
// violation state be *maintained* under deltas instead of recomputed from
// scratch: the detection layer subscribes once and pays O(|Δ|) per
// mutation, never O(|D|).

// DeltaKind discriminates the three mutation deltas a Relation emits.
type DeltaKind uint8

const (
	// DeltaInsert reports a tuple added to the relation.
	DeltaInsert DeltaKind = iota
	// DeltaDelete reports a tuple removed from the relation. The Tuple in
	// the delta is no longer owned by the relation, but its values and
	// interned ids still reflect its state at removal time.
	DeltaDelete
	// DeltaUpdate reports one attribute of a tuple changed via Set. The
	// Tuple already carries the new value; Old and OldID preserve the
	// replaced value so subscribers can locate state keyed on it.
	DeltaUpdate
)

// Delta is one relation mutation, emitted after the fact.
type Delta struct {
	Kind DeltaKind
	T    *Tuple
	// Attr, Old and OldID are meaningful for DeltaUpdate only: the changed
	// attribute position, its previous value, and the previous interned id.
	Attr  int
	Old   Value
	OldID ValueID
}

// Subscribe registers fn to observe every subsequent mutation of the
// relation and returns a function that removes the subscription — and the
// relation's last reference to fn, so that what fn holds can be collected
// while the relation lives on. Subscribers are notified synchronously in
// subscription order, after the relation's own state is updated; fn must
// not mutate the relation.
func (r *Relation) Subscribe(fn func(Delta)) (unsubscribe func()) {
	id := r.nextSub
	r.nextSub++
	r.subs = append(r.subs, subscriber{id: id, fn: fn})
	return func() {
		for i, s := range r.subs {
			if s.id == id {
				r.subs = slices.Delete(r.subs, i, i+1) // zeroes the vacated slot
				return
			}
		}
	}
}

type subscriber struct {
	id int
	fn func(Delta)
}

func (r *Relation) notify(d Delta) {
	for _, s := range r.subs {
		s.fn(d)
	}
}

// NextID returns the id the next Insert of an id-less tuple would be
// assigned. Together with RestoreNextID it lets callers run apply/undo
// probes — insert scratch tuples, observe maintained state, delete them —
// without permanently advancing the id sequence. NextID also serves as
// the journal's insertion watermark: two states with equal NextID have
// seen the same id-assigning history, which is what lets a streaming
// session name its published snapshots (see increpair.Snapshot).
func (r *Relation) NextID() TupleID { return r.nextID }

// Version returns the journal's mutation counter: the total number of
// Insert, Delete and effective Set calls the relation has seen. Unlike
// NextID — which only advances on inserts — Version changes on *every*
// mutation, so two reads observing the same Version are guaranteed to
// have seen the identical relation state. It is the cheap freshness
// token behind lock-free snapshot publication: a writer stamps each
// published snapshot with (NextID, Version), and a reader comparing two
// snapshot versions knows whether anything at all happened in between.
func (r *Relation) Version() uint64 { return r.version }

// RestoreJournalMarks overwrites the journal's id watermark and mutation
// counter with values recorded from another relation's journal. It is
// the crash-recovery hook: a relation rebuilt from a persisted snapshot
// (internal/wal) re-inserts the surviving tuples, which leaves nextID at
// max(id)+1 and version at the tuple count — but the pre-crash journal
// may have advanced further (deleted high ids, update and probe
// mutations). Restoring both marks makes the rebuilt journal
// indistinguishable from the original at the snapshot point, so replayed
// WAL batches assign the same ids and land on the same Version cursor.
// nextID only moves forward (an id below a live tuple's would corrupt
// the relation); version is overwritten as given. A version moved back
// would meet page stamps it already handed out, so then every page's
// stamp starts over at 0 and the CSV page cache is emptied.
func (r *Relation) RestoreJournalMarks(nextID TupleID, version uint64) {
	if nextID > r.nextID {
		r.nextID = nextID
	}
	if version < r.version {
		clear(r.stamps)
		r.csvMu.Lock()
		r.csvPages = nil
		r.csvMu.Unlock()
	}
	r.version = version
}

// RestoreNextID rewinds the id counter to a value previously obtained
// from NextID. The caller must have deleted every tuple inserted since
// the mark; otherwise future ids would collide. Insert still bumps the
// counter past any explicit id, so a stale mark degrades to a no-op
// rather than corrupting the relation.
func (r *Relation) RestoreNextID(mark TupleID) {
	if mark < r.nextID {
		r.nextID = mark
	}
}
