package increpair

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// Durability: a Session serializes to a full-state snapshot
// (wal.Snapshot) and replays logged mutation batches (wal.Batch) through
// its ordinary ApplyOps path. Recovery is byte-identical by
// construction: the snapshot pins the relation's physical row order,
// tuple ids, journal marks and session counters; the violation store is
// a pure function of the relation contents and is rebuilt by one
// deterministic detection pass; and every replayed batch runs the same
// deterministic engine pass the live session ran, so the restored
// session's Dump, violation listing and Stats equal the original's at the
// same watermark (see internal/wal/recovery_test.go).

// OpsToDeltas encodes one ApplyOps input batch as relation Deltas — the
// WAL's op triple convention:
//
//   - a delete is a DeltaDelete whose tuple carries only the id;
//   - a set is a DeltaUpdate whose tuple carries the id, with Attr the
//     target attribute and Old the value to store (an input op has no
//     "old" value, so the field transports the operand);
//   - an insert is a DeltaInsert carrying the full arriving tuple —
//     id (zero for session-assigned), values and weights.
//
// DeltasToOps inverts the mapping.
func OpsToDeltas(deletes []relation.TupleID, sets []SetOp, inserts []*relation.Tuple) []relation.Delta {
	out := make([]relation.Delta, 0, len(deletes)+len(sets)+len(inserts))
	for _, id := range deletes {
		out = append(out, relation.Delta{Kind: relation.DeltaDelete, T: &relation.Tuple{ID: id}})
	}
	for _, op := range sets {
		out = append(out, relation.Delta{Kind: relation.DeltaUpdate, T: &relation.Tuple{ID: op.ID}, Attr: op.Attr, Old: op.Value})
	}
	for _, t := range inserts {
		out = append(out, relation.Delta{Kind: relation.DeltaInsert, T: t})
	}
	return out
}

// DeltasToOps decodes a WAL op sequence back into ApplyOps inputs. Ops
// are grouped by kind in first-appearance order; ApplyOps applies
// deletes, then sets, then inserts regardless of interleaving, so the
// grouping preserves the recorded batch's semantics exactly.
func DeltasToOps(ops []relation.Delta) (deletes []relation.TupleID, sets []SetOp, inserts []*relation.Tuple, err error) {
	for i, d := range ops {
		if d.T == nil {
			return nil, nil, nil, fmt.Errorf("increpair: wal op %d has no tuple", i)
		}
		switch d.Kind {
		case relation.DeltaDelete:
			deletes = append(deletes, d.T.ID)
		case relation.DeltaUpdate:
			sets = append(sets, SetOp{ID: d.T.ID, Attr: d.Attr, Value: d.Old})
		case relation.DeltaInsert:
			inserts = append(inserts, d.T)
		default:
			return nil, nil, nil, fmt.Errorf("increpair: wal op %d has unknown kind %d", i, d.Kind)
		}
	}
	return deletes, sets, inserts, nil
}

// Persist writes the session's full state as a framed snapshot: schema,
// CFD set, engine options, cumulative counters, journal marks and every
// tuple in physical row order. name is recorded for the hosting service
// ("" outside it). The image is one quiescent point — never a
// half-applied batch — but Persist holds the session lock only to build
// the header and pin a view of the relation (captureLocked), so a slow w
// stalls no batch. The rows go from the view's tuples straight into the
// writer's one chunk buffer (wal.WriteSnapshotRows), under the ids the
// relation's dictionary gave their values, each constant's bytes read
// from the dictionary by id: each live constant is written once, and no
// dead one. A pinned tuple never changes, so no value or weight is
// copied, and Persist holds one chunk's bytes and one id per dictionary
// entry whatever the relation's size, beside the copy-on-write
// pre-images of the pages batches write while it runs.
func (s *Session) Persist(name string, w io.Writer) error {
	_, err := s.image(name, w)
	return err
}

// PersistSnapshot is Persist with the chunk records kept in the returned
// snapshot (wal.Snapshot.EncodeRows) instead of written: what the hosting
// service ships to replicas, which may stamp header fields such as the
// quota in before wal.WriteSnapshot or Stream renders the header. It
// holds the encoded image and nothing else of the rows.
func (s *Session) PersistSnapshot(name string) (*wal.Snapshot, error) {
	return s.image(name, nil)
}

// image captures the session (captureLocked) and, once the session lock
// is released, encodes the view's rows as wal.SnapTuple ids under the
// relation's dictionary: written to w (wal.WriteSnapshotRows), or kept
// in the returned snapshot when w is nil (wal.Snapshot.EncodeRows).
func (s *Session) image(name string, w io.Writer) (*wal.Snapshot, error) {
	s.mu.Lock()
	snap, v, err := s.captureLocked(name)
	dict := s.e.repr.Dict()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	defer v.Release()
	// The encoder reads each chunk twice, in order.
	rows, next := v.Rows(), 0
	ids := make([]relation.ValueID, len(snap.Attrs))
	row := func(i int) wal.SnapTuple {
		if i != next {
			rows.Seek(i)
		}
		next = i + 1
		t := rows.Next()
		for a := range ids {
			ids[a] = t.IDAt(a)
		}
		return wal.SnapTuple{ID: t.ID, W: t.W, IDs: ids}
	}
	if w != nil {
		err = wal.WriteSnapshotRows(w, snap, v.Len(), dict, row)
	} else {
		err = snap.EncodeRows(v.Len(), dict, row)
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// captureLocked is the one image of a session, taken under the session
// lock the caller holds: it builds the snapshot header and pins a view of
// the relation at the header's version, and nothing else (PersistBoundary
// also begins its store flush of the view before it lets go). What costs
// O(|D|) — encoding the rows — reads the view after the lock is
// released. The caller must Release the view.
func (s *Session) captureLocked(name string) (*wal.Snapshot, *relation.View, error) {
	if s.closed {
		return nil, nil, errClosed
	}
	if s.sigmaText == "" {
		text, err := formatSigma(s.e.det.Sigma())
		if err != nil {
			return nil, nil, err
		}
		s.sigmaText = text
	}
	repr := s.e.repr
	sch := repr.Schema()
	snap := &wal.Snapshot{
		Name:     name,
		Relname:  sch.Name(),
		Attrs:    sch.Attrs(),
		CFDs:     s.sigmaText,
		Ordering: uint8(s.e.opts.Ordering),
		K:        s.e.opts.K,
		NearestK: s.e.opts.NearestK,
		Batches:  s.batches,
		Inserted: s.applied,
		Deleted:  s.deleted,
		Changes:  s.changes,
		Cost:     s.cost,
		NextID:   repr.NextID(),
		Version:  repr.Version(),
	}
	return snap, repr.Pin(), nil
}

// formatSigma renders the session's constraint set in the cfd.Parse text
// format, by way of the source CFDs the normal rules were derived from.
// Byte-identical recovery needs the restored sigma to reproduce rule
// names and ranks exactly, so persistence requires sigma to be the full,
// in-order normalization of its sources — which every session built from
// parsed or Normalize'd CFDs satisfies — and verifies the text
// round-trips before committing to it.
func formatSigma(sigma []*cfd.Normal) (string, error) {
	var srcs []*cfd.CFD
	seen := make(map[*cfd.CFD]bool)
	for _, n := range sigma {
		if n.Source == nil {
			return "", fmt.Errorf("increpair: persist: rule %s has no source CFD; only sessions built from parsed or normalized CFDs can be persisted", n.Name)
		}
		if !seen[n.Source] {
			seen[n.Source] = true
			srcs = append(srcs, n.Source)
		}
	}
	if !sigmaEqual(sigma, cfd.NormalizeAll(srcs)) {
		return "", fmt.Errorf("increpair: persist: sigma is not the full normalization of its source CFDs; a reordered or partial rule set cannot be persisted faithfully")
	}
	var buf bytes.Buffer
	if err := cfd.Format(&buf, srcs); err != nil {
		return "", err
	}
	reparsed, err := cfd.Parse(srcs[0].Schema, strings.NewReader(buf.String()))
	if err != nil {
		return "", fmt.Errorf("increpair: persist: formatted CFD set does not re-parse: %w", err)
	}
	if !sigmaEqual(sigma, cfd.NormalizeAll(reparsed)) {
		return "", fmt.Errorf("increpair: persist: CFD set does not round-trip through its text form")
	}
	return buf.String(), nil
}

// sigmaEqual compares two normalized rule lists structurally: names,
// attribute positions and pattern cells, in order.
func sigmaEqual(a, b []*cfd.Normal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Name != y.Name || x.A != y.A || len(x.X) != len(y.X) {
			return false
		}
		for j := range x.X {
			if x.X[j] != y.X[j] || x.TpX[j] != y.TpX[j] {
				return false
			}
		}
		if x.TpA != y.TpA {
			return false
		}
	}
	return true
}

// RestoreSession rebuilds a session from a snapshot written by Persist.
// The relation is reconstructed tuple by tuple in the recorded physical
// order under the recorded ids, the journal marks are restored, and a
// fresh violation store is built by one deterministic detection pass —
// after which the restored session is indistinguishable from the
// original at the snapshot point. Batches logged after the snapshot are
// reapplied with ReplayBatch.
//
// The rows are read one chunk record at a time (wal.SnapshotReader) and
// inserted by id as they are decoded, into a relation built over the
// reader's dictionary, so beside the session it builds RestoreSession
// holds one chunk's bytes whatever the relation's size and copies each
// constant once, into the dictionary, as every restore of a snapshot
// stream does. A damaged stream is refused whole: an error and no
// session.
//
// The options — ordering, K, NearestK — all come from the snapshot, since
// replay must re-run the exact passes that were logged.
func RestoreSession(r io.Reader) (*Session, error) {
	snap, rows, err := wal.NewSnapshotReader(r)
	if err != nil {
		return nil, err
	}
	return RestoreFromSnapshotSource(snap, rows, rows.Dict())
}

// RestoreFromSnapshot is RestoreSession over the stream of a snapshot
// PersistSnapshot captured (wal.Snapshot.Stream), which only the
// benchmark holds. workers drives nothing; it stays until ROADMAP item
// 1(i)(b) folds the restore entry points.
func RestoreFromSnapshot(snap *wal.Snapshot, workers int) (*Session, error) {
	img, _, err := snap.Stream()
	if err != nil {
		return nil, err
	}
	return RestoreSession(img)
}

// restoreTail finishes a restore once the relation is rebuilt: journal
// marks, constraint re-parse, one deterministic detection pass via
// newEngine, and the persisted session counters.
func restoreTail(snap *wal.Snapshot, sch *relation.Schema, rel *relation.Relation) (*Session, error) {
	if snap.NextID < rel.NextID() {
		return nil, fmt.Errorf("increpair: restore: snapshot watermark %d below the rebuilt relation's %d", snap.NextID, rel.NextID())
	}
	rel.RestoreJournalMarks(snap.NextID, snap.Version)

	parsed, err := cfd.Parse(sch, strings.NewReader(snap.CFDs))
	if err != nil {
		return nil, fmt.Errorf("increpair: restore: %w", err)
	}
	o := Options{
		Ordering: Ordering(snap.Ordering),
		K:        snap.K,
		NearestK: snap.NearestK,
	}
	o = (&o).withDefaults()
	e, err := newEngine(rel, cfd.NormalizeAll(parsed), o)
	if err != nil {
		return nil, err
	}
	s := &Session{
		e:       e,
		batches: snap.Batches,
		applied: snap.Inserted,
		deleted: snap.Deleted,
		cost:    snap.Cost,
		changes: snap.Changes,
	}
	s.publish()
	return s, nil
}

// ErrReplayGap reports a hole in a replayed batch stream: the batch's
// PrevVersion is ahead of the session's journal counter, so one or more
// intermediate batches are missing. Crash recovery treats it as tail
// damage; a replication follower treats it as the signal to resync from
// a fresh snapshot instead of applying out of order.
var ErrReplayGap = fmt.Errorf("increpair: replay gap")

// ReplayBatch reapplies one logged batch. The batch's journal-version
// bracket makes replay idempotent and gap-safe: a batch already
// contained in the restored snapshot (Version at or below the session's
// counter) is skipped, a batch whose PrevVersion does not meet the
// session's counter reports a hole in the log (ErrReplayGap), and a
// pass that does not land exactly on the recorded post-version reports
// divergence — the session can no longer be trusted to equal the
// pre-crash one. applied reports whether the batch ran (false for the
// idempotent skip).
func (s *Session) ReplayBatch(b *wal.Batch) (applied bool, err error) {
	deletes, sets, inserts, applies, err := s.CheckReplay(b)
	if err != nil || !applies {
		return false, err
	}
	if _, _, err := s.ApplyOps(deletes, sets, inserts); err != nil {
		return false, fmt.Errorf("increpair: replay: %w", err)
	}
	return true, nil
}

// CheckReplay is ReplayBatch up to the pass: it decodes b's ops and
// checks them against the session without mutating it. applies is false
// for a batch the session already contains; a gap, undecodable ops, a
// batch Check refuses, and one whose pass would not land on b.Version
// are errors. A replication follower runs the pass itself, so it can log
// b while the pass runs.
func (s *Session) CheckReplay(b *wal.Batch) (deletes []relation.TupleID, sets []SetOp, inserts []*relation.Tuple, applies bool, err error) {
	cur := s.snap.Load().Version
	if b.Version <= cur {
		return nil, nil, nil, false, nil
	}
	if b.PrevVersion != cur {
		return nil, nil, nil, false, fmt.Errorf("%w: batch expects journal version %d, session is at %d", ErrReplayGap, b.PrevVersion, cur)
	}
	if deletes, sets, inserts, err = DeltasToOps(b.Ops); err != nil {
		return nil, nil, nil, false, err
	}
	landing, err := s.Check(deletes, sets, inserts)
	if err != nil {
		return nil, nil, nil, false, fmt.Errorf("increpair: replay: %w", err)
	}
	if landing != b.Version {
		return nil, nil, nil, false, fmt.Errorf("increpair: replay: pass should end at journal version %d, session would land on %d", b.Version, landing)
	}
	return deletes, sets, inserts, true, nil
}
