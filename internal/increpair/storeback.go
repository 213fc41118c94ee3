package increpair

import (
	"errors"
	"fmt"

	"cfdclean/internal/relation"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// Page-store integration: a session whose relation is snapshotted
// incrementally into a page store (internal/store), as every durable
// session of the service is. The engine itself is untouched — it
// operates on the in-memory relation either way, and the store holds no
// row in memory — but the durability boundary changes shape:
// PersistBoundary captures a slim snapshot header plus a page flush (the
// dirty page numbers and the pinned relation) instead of re-encoding
// every tuple into one record, and RestoreFromSnapshotSource
// streams rows back from the store's page files instead of a snapshot
// record.

// AttachStore subscribes st to the session's live relation, so every
// mutation from now on marks its row's page dirty in the store. With seed
// set, the pages of the relation's current rows are marked first (the
// bootstrap for a brand-new store; a store reopened by crash recovery
// already holds them). A session can hold at most one store.
func (s *Session) AttachStore(st *store.Disk, seed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.st != nil {
		return errors.New("increpair: session already has a store attached")
	}
	st.Attach(s.e.repr)
	if seed {
		st.SeedAll(s.e.repr)
	}
	s.st = st
	return nil
}

// Store returns the attached disk store, or nil.
func (s *Session) Store() *store.Disk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// PersistBoundary captures the session's durability boundary for a
// store-backed rotation: a slim snapshot header (StoreKind=StorePaged,
// no inline tuples — the caller stamps StoreGen once it assigns the
// generation) and a Flush holding the dirty page numbers, the dictionary
// watermark and the view the header was captured with (captureLocked).
// The flush begins under the same hold of the session lock, so both
// describe one quiescent point; the caller must resolve the flush with
// exactly one Commit or Abort.
func (s *Session) PersistBoundary(name string) (*wal.Snapshot, *store.Flush, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, v, err := s.captureLocked(name)
	if err != nil {
		return nil, nil, err
	}
	if s.st == nil {
		v.Release()
		return nil, nil, errors.New("increpair: no store attached")
	}
	snap.StoreKind = wal.StorePaged
	return snap, s.st.BeginFlush(v), nil
}

// TupleSource streams snapshot rows in physical order. Next returns
// ok=false at clean exhaustion; an error poisons the restore (the
// caller falls back to an older generation). store.Iterator implements
// it over page files, wal.SnapshotReader over a snapshot stream's chunk
// records, and sliceSource adapts a decoded snapshot's inline tuples.
type TupleSource interface {
	Next() (wal.SnapTuple, bool, error)
}

type sliceSource struct {
	ts []wal.SnapTuple
	i  int
}

func (s *sliceSource) Next() (wal.SnapTuple, bool, error) {
	if s.i >= len(s.ts) {
		return wal.SnapTuple{}, false, nil
	}
	t := s.ts[s.i]
	s.i++
	return t, true, nil
}

// RestoreFromSnapshotSource is RestoreFromSnapshot with the rows
// supplied by src instead of snap.Tuples — the paged recovery path,
// where snap is a slim header and src streams the page store.
// preloadDict, when non-nil, is interned into the fresh relation's
// dictionary in order before any row is inserted: a relation Dict
// assigns dense ids in intern order, so preloading the store's
// persisted dictionary reproduces the persisted ValueIDs exactly and
// the reopened store's rows stay valid against the restored relation.
func RestoreFromSnapshotSource(snap *wal.Snapshot, src TupleSource, preloadDict []string) (*Session, error) {
	if snap.Ordering > uint8(ByWeight) {
		return nil, fmt.Errorf("increpair: restore: unknown ordering %d", snap.Ordering)
	}
	sch, err := relation.NewSchema(snap.Relname, snap.Attrs...)
	if err != nil {
		return nil, fmt.Errorf("increpair: restore: %w", err)
	}
	rel := relation.New(sch)
	for _, v := range preloadDict {
		rel.Dict().InternStr(v)
	}
	for i := 0; ; i++ {
		st, ok, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("increpair: restore: %w", err)
		}
		if !ok {
			break
		}
		if st.ID == 0 {
			return nil, fmt.Errorf("increpair: restore: snapshot tuple %d has no id", i)
		}
		if err := rel.Insert(&relation.Tuple{ID: st.ID, Vals: st.Vals, W: st.W}); err != nil {
			return nil, fmt.Errorf("increpair: restore: %w", err)
		}
	}
	return restoreTail(snap, sch, rel)
}
