package relation

// Pinned snapshot views over the tuple store.
//
// A View freezes the relation's physical tuple array at a journal version
// so readers can iterate it without holding the writer's lock. The design
// is page-level copy-on-write over the flat tuple slice:
//
//   - Pin captures the current slice header (array pointer + length) and
//     joins — or opens — a view generation for the current version.
//   - While any generation is active, every mutator preserves the page it
//     is about to write into each generation that has not saved that page
//     yet, then performs the write. A page that was never dirtied is read
//     straight from the pinned array; a dirtied page is read from the
//     generation's saved pre-image.
//   - Updates under a pinned view clone-and-swap the tuple pointer instead
//     of mutating the shared Tuple in place, so tuples reachable from a
//     view are immutable for the view's lifetime.
//
// The writer's fast path stays lock-free: when no generation is active
// (the steady state — activeGens is an atomic counter) mutators skip the
// viewMu critical section entirely and behave exactly as before PR 7.
//
// Synchronization contract: Pin must be called from the writer's
// serialization context — the same mutual exclusion that orders
// Insert/Delete/Set (increpair.Session holds s.mu for both). The pin is
// what creates the happens-before edge between prior mutations and the
// readers that consume the view. After that, view reads take viewMu.RLock
// only for the duration of a page copy-out, and Release may be called
// from any goroutine (it is idempotent per View).

// PageRows is the rows of a view page: the COW granularity, the unit of
// the page stamps and the CSV page cache, and a page of the page store
// (internal/store). 1024 rows ≈ 8 KiB of pointers per preserved page: big
// enough that a dump's lock hold per refill stays a pointer memcpy, small
// enough that a writer dirtying one row copies O(page), not O(relation).
const PageRows = 1024

// viewGen is one pinned generation: every View taken at the same relation
// version shares a generation (refcounted), so concurrent dumps at one
// version cost one set of pre-images no matter how many readers.
type viewGen struct {
	refs    int
	version uint64
	arr     []*Tuple         // slice header frozen at pin time
	n       int              // row count at pin time (== len(arr))
	pages   map[int][]*Tuple // page index -> pre-image, saved before first dirty write
	stamps  []uint64         // the relation's page stamps at pin time, one a page
}

// View is a consistent read-only snapshot of the relation at one journal
// version. It stays valid — and pins its generation's pre-images — until
// Release.
type View struct {
	rel      *Relation
	gen      *viewGen
	version  uint64
	nextID   TupleID
	dictLen  int
	released bool
}

// Pin captures a consistent view at the relation's current version. It
// must be called from the writer's serialization context (see the package
// comment above); the returned View may then be handed to any goroutine.
func (r *Relation) Pin() *View {
	r.viewMu.Lock()
	var g *viewGen
	if k := len(r.gens); k > 0 && r.gens[k-1].version == r.version {
		// Same version as the newest generation: share it. Versions are
		// monotone, so only the newest generation can match.
		g = r.gens[k-1]
		g.refs++
	} else {
		g = &viewGen{
			refs:    1,
			version: r.version,
			arr:     r.tuples[:len(r.tuples):len(r.tuples)],
			n:       len(r.tuples),
			pages:   make(map[int][]*Tuple),
			stamps:  make([]uint64, (len(r.tuples)+PageRows-1)/PageRows),
		}
		copy(g.stamps, r.stamps)
		r.gens = append(r.gens, g)
		r.activeGens.Store(int32(len(r.gens)))
	}
	r.viewMu.Unlock()
	return &View{rel: r, gen: g, version: r.version, nextID: r.nextID, dictLen: r.dict.Len()}
}

// Release drops the view's pin. The last release of a generation frees
// its pre-images and, once no generation is active, restores the writer's
// lock-free fast path. Safe to call more than once and from any
// goroutine, but each View must be released by at most one goroutine.
func (v *View) Release() {
	if v.released {
		return
	}
	v.released = true
	r := v.rel
	r.viewMu.Lock()
	v.gen.refs--
	if v.gen.refs == 0 {
		for i, g := range r.gens {
			if g == v.gen {
				r.gens = append(r.gens[:i], r.gens[i+1:]...)
				break
			}
		}
		r.activeGens.Store(int32(len(r.gens)))
	}
	r.viewMu.Unlock()
}

// Len returns the number of rows in the view (the relation's size at pin
// time).
func (v *View) Len() int { return v.gen.n }

// Version returns the journal version the view was pinned at.
func (v *View) Version() uint64 { return v.version }

// NextID returns the relation's id watermark at pin time.
func (v *View) NextID() TupleID { return v.nextID }

// DictLen returns the number of constants the relation's dictionary held
// at pin time: every value id a view tuple carries is at most DictLen.
func (v *View) DictLen() int { return v.dictLen }

// Schema returns the relation's schema (immutable, so shared).
func (v *View) Schema() *Schema { return v.rel.schema }

// Stamps returns the relation's page stamps at pin time, one a page:
// stamp p is the version of the last write into page p, and a page no
// write has stamped since the stamps were last cleared reads 0. The slice
// is shared by every view of the generation and must not be modified.
func (v *View) Stamps() []uint64 { return v.gen.stamps }

// Page copies view rows of page p (positions p·PageRows on, at most
// PageRows of them) into dst and returns the count. The read lock is held
// only for the pointer memcpy.
func (v *View) Page(p int, dst []*Tuple) int {
	lo := p * PageRows
	if lo >= v.gen.n {
		return 0
	}
	r := v.rel
	r.viewMu.RLock()
	var n int
	if pg, ok := v.gen.pages[p]; ok {
		n = copy(dst, pg)
	} else {
		hi := min(lo+PageRows, v.gen.n)
		n = copy(dst, v.gen.arr[lo:hi])
	}
	r.viewMu.RUnlock()
	return n
}

// Tuple returns view row i (0 ≤ i < Len) — a per-row convenience for
// tests and spot reads; iteration should use Rows, which amortizes the
// lock over a page.
func (v *View) Tuple(i int) *Tuple {
	p := i / PageRows
	r := v.rel
	r.viewMu.RLock()
	defer r.viewMu.RUnlock()
	if pg, ok := v.gen.pages[p]; ok {
		return pg[i-p*PageRows]
	}
	return v.gen.arr[i]
}

// ActiveViews reports the number of active view generations — for tests
// and metrics; 0 means the writer is on its lock-free fast path.
func (r *Relation) ActiveViews() int {
	r.viewMu.RLock()
	defer r.viewMu.RUnlock()
	return len(r.gens)
}

// preserveLocked saves page p into every active generation that can still
// read it and has not saved it yet. It must run under viewMu's write lock
// and before the write that dirties the page. The pre-image is copied
// from each generation's own pinned array: slots below the current length
// hold pin-time content by the unset-page invariant, and slots between
// the current length and the generation's length (possible after net
// deletes) were only ever truncated, never overwritten, so the pinned
// array still holds their pin-time content too.
func (r *Relation) preserveLocked(p int) {
	lo := p * PageRows
	for _, g := range r.gens {
		if lo >= g.n {
			continue // page entirely beyond this generation's range
		}
		if _, ok := g.pages[p]; ok {
			continue // already preserved for this generation
		}
		hi := min(lo+PageRows, g.n)
		pg := make([]*Tuple, hi-lo)
		copy(pg, g.arr[lo:hi])
		g.pages[p] = pg
	}
}

// cowAppend appends t to the tuple slice while views are pinned: the
// append slot may lie inside a generation's range after net deletes, so
// its page is preserved first.
func (r *Relation) cowAppend(t *Tuple) {
	r.viewMu.Lock()
	r.preserveLocked(len(r.tuples) / PageRows)
	r.tuples = append(r.tuples, t)
	r.viewMu.Unlock()
}

// cowDelete performs the swap-compaction of slot i while views are
// pinned. Only slot i is written (the last slot is read and truncated,
// never overwritten), so one page preserve suffices.
func (r *Relation) cowDelete(i int) {
	r.viewMu.Lock()
	r.preserveLocked(i / PageRows)
	last := len(r.tuples) - 1
	r.tuples[i] = r.tuples[last]
	r.setPos(r.tuples[i].ID, i)
	r.tuples = r.tuples[:last]
	r.viewMu.Unlock()
}

// cowSet applies an in-place attribute update while views are pinned by
// cloning the tuple and swapping the slot pointer, leaving the original
// object — still reachable from pinned pages and pinned arrays —
// unchanged. Returns the relation-resident tuple after the update.
func (r *Relation) cowSet(i, a int, v Value, vid ValueID) *Tuple {
	t := r.tuples[i]
	c := &Tuple{
		ID:   t.ID,
		Vals: append([]Value(nil), t.Vals...),
		ids:  append([]ValueID(nil), t.ids...),
	}
	if t.W != nil {
		c.W = append([]float64(nil), t.W...)
	}
	c.Vals[a] = v
	c.ids[a] = vid
	r.viewMu.Lock()
	r.preserveLocked(i / PageRows)
	r.tuples[i] = c
	r.viewMu.Unlock()
	return c
}
