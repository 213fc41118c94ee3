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
// pinned relation, whose stamped pages it writes) instead of re-encoding
// every tuple into one record, and RestoreFromSnapshotSource
// streams rows back from the store's page files instead of a snapshot
// record.

// AttachStore binds st to the session's live relation, whose page stamps
// then tell each flush which pages to write. Without seed the store takes
// the relation as it stands for its committed state — a store reopened by
// crash recovery holds it — so its next flush writes the pages stamped
// after the relation's current version. With seed (the bootstrap for a brand-new
// store) its first flush writes every page. A session can hold at most one
// store.
func (s *Session) AttachStore(st *store.Disk, seed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.st != nil {
		return errors.New("increpair: session already has a store attached")
	}
	st.Attach(s.e.repr, seed)
	s.st = st
	return nil
}

// PersistBoundary captures the session's durability boundary for a
// store-backed rotation: a slim snapshot header (StoreKind=StorePaged,
// no inline tuples — the caller stamps StoreGen once it assigns the
// generation) and a Flush holding the view the header was captured with
// (captureLocked), whose page stamps, rows and dictionary watermark the
// flush commits.
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
// records — both hand back the ids of their rows' values — and
// sliceSource adapts a decoded snapshot's inline tuples, which carry
// none.
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
// supplied by src instead of snap.Tuples. dict is the dictionary src's
// row ids refer to, and the restored relation takes it as its own: a
// snapshot stream's (wal.SnapshotReader.Dict), or the page store's
// persisted one (store.Disk.Dict), which reproduces the ValueIDs the
// store's rows were written under, so that the reopened store stays
// valid against the restored relation. Every row is inserted by id:
// Insert adopts the ids as they are. A nil dict stands for rows that
// carry no ids (rows already in memory): their IDs are not read, and
// their constants are interned here first, in row order.
func RestoreFromSnapshotSource(snap *wal.Snapshot, src TupleSource, dict *relation.Dict) (*Session, error) {
	if snap.Ordering > uint8(ByWeight) {
		return nil, fmt.Errorf("increpair: restore: unknown ordering %d", snap.Ordering)
	}
	sch, err := relation.NewSchema(snap.Relname, snap.Attrs...)
	if err != nil {
		return nil, fmt.Errorf("increpair: restore: %w", err)
	}
	byID := dict != nil
	if !byID {
		dict = relation.NewDict()
	}
	rel := relation.NewWithDict(sch, dict)
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
		if !byID {
			st.IDs = make([]relation.ValueID, len(st.Vals))
			for a, v := range st.Vals {
				st.IDs[a] = dict.Intern(v)
			}
		}
		if err := rel.Insert(dict.ProbeOf(st.ID, st.Vals, st.IDs, st.W)); err != nil {
			return nil, fmt.Errorf("increpair: restore: %w", err)
		}
	}
	return restoreTail(snap, sch, rel)
}
