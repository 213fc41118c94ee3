package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"cfdclean/internal/increpair"
	"cfdclean/internal/wal"
)

// Follower-side replication: the registry half of the WAL-shipping
// stream (see internal/cluster/ship for the wire and the primary half).
// A follower session is an ordinary hosted session that refuses client
// writes: state advances only through ReplicateBatch, whose batches the
// session's own worker replays under the journal-version discipline WAL
// replay uses, so a promoted follower is byte-identical to a primary
// that was never lost. The session's committer logs every replayed pass
// like any other — appended to the replica's local WAL (and fsynced,
// rotated, published) before acknowledgement — which is what lets
// promotion simply resume the log as its own.

// Replication errors mapped by the handler layer.
var (
	// errReplicaConflict reports a replication message for a session this
	// node hosts as a primary — mapped to 421; the shipper stops rather
	// than resync (split-brain guard).
	errReplicaConflict = errors.New("server: session is primary on this node")
	// errReplicaGap reports a shipped batch that cannot chain onto the
	// replica's journal version — mapped to 409, which the primary heals
	// by reshipping a snapshot.
	errReplicaGap = errors.New("server: replica gap")
	// errReplicaImage reports a shipped image this node cannot take —
	// mapped to 400 (413 past the install bound), never to 409: a resync
	// would ship the same image again.
	errReplicaImage = errors.New("server: unusable snapshot image")
)

// InstallReplica installs (or replaces) a follower session from a
// shipped snapshot stream — the bootstrap for a follower joining
// mid-stream and the healing move after any gap. An image naming another
// session (errReplicaImage) and a name this node holds as a primary
// (errReplicaConflict) are refused from the header, before any row is
// read. The rows are restored as they arrive, outside
// installMu, so a slow body holds up no other install; under it an
// existing follower under the name is removed, files and all, and the
// restored session registered in its place.
func (r *Registry) InstallReplica(ctx context.Context, name string, img io.Reader) error {
	if r.draining.Load() {
		return ErrDraining
	}
	snap, rows, err := wal.NewSnapshotReader(img)
	switch {
	case err != nil:
		return fmt.Errorf("%w: install %s: %w", errReplicaImage, name, err)
	case snap.Name != "" && snap.Name != name:
		return fmt.Errorf("%w: install %s: image names %q", errReplicaImage, name, snap.Name)
	case r.isPrimary(name):
		return errReplicaConflict
	}
	sess, err := increpair.RestoreFromSnapshotSource(snap, rows, rows.Dict())
	if err != nil {
		return fmt.Errorf("%w: install %s: %w", errReplicaImage, name, err)
	}
	r.installMu.Lock()
	defer r.installMu.Unlock()
	if r.isPrimary(name) {
		sess.Close()
		return errReplicaConflict
	}
	if err := r.Remove(ctx, name); err != nil && !errors.Is(err, ErrNotFound) {
		sess.Close()
		return err
	}
	// The quota travels in the snapshot header (it only matters after
	// promotion — followers take no writes).
	if _, err := r.register(name, sess, sess.Current().Schema(), nil, snap.Quota, roleFollower); err != nil {
		sess.Close()
		return err
	}
	return nil
}

// isPrimary reports whether this node hosts name as a primary.
func (r *Registry) isPrimary(name string) bool {
	h, err := r.Get(name)
	return err == nil && h.role.Load() != roleFollower
}

// ReplicateBatch hands one shipped batch to the follower session's own
// pipeline and waits for it to be committed. The worker replays it under
// the replay discipline — a duplicate is skipped, a gap (or any other
// replay failure) refuses with errReplicaGap, a batch never applies out
// of order — and refuses with errReplicaConflict once the session is no
// longer a follower; the committer publishes the same pass event a
// primary would, so SSE consumers on the follower see the same stream
// (seq continues across promotion).
func (r *Registry) ReplicateBatch(ctx context.Context, name string, b *wal.Batch) error {
	h, err := r.Get(name)
	if err != nil {
		return err
	}
	if h.role.Load() != roleFollower {
		return errReplicaConflict
	}
	j := job{replay: b, reply: make(chan jobReply, 1)}
	if err := h.enqueue(ctx, j); err != nil {
		return err
	}
	rep, err := h.await(ctx, j)
	if err != nil {
		return err
	}
	return rep.err
}

// Promote flips a follower session to primary: writes are accepted from
// the next request on, and the session's WAL — kept in lockstep while
// following — continues as its own. The worker reads the role when it
// takes each shipped batch, so one in the pipeline when the role flips
// either was replayed before it or is refused after it, never half of
// each, and Promote returns behind all of them (one quiesce sentinel).
// Idempotent: promoting a primary is a no-op. Promotion is a failover:
// the old primary is presumed dead, and a two-node cluster has no third
// peer to ship to, so the promoted session ships to no one.
func (r *Registry) Promote(ctx context.Context, name string) (*hosted, error) {
	h, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if h.role.CompareAndSwap(roleFollower, rolePrimary) {
		// The durable role flips with the live one: a promoted session
		// restarting must come back a primary, not a follower again.
		if h.pers != nil {
			if err := writeRoleMarker(h.pers.dir, false); err != nil {
				h.pers.markBroken(err)
			}
		}
		if !h.waitQuiesce(ctx) {
			return nil, fmt.Errorf("%w: promote %s: pipeline did not quiesce", ErrDraining, name)
		}
	}
	return h, nil
}

// DropReplica removes a follower session from this node — the cleanup
// path when the primary deletes the session. Refuses for primaries:
// deleting live state needs the ordinary DELETE, routed to the owner.
func (r *Registry) DropReplica(ctx context.Context, name string) error {
	h, err := r.Get(name)
	if err != nil {
		return err
	}
	if h.role.Load() != roleFollower {
		return errReplicaConflict
	}
	return r.Remove(ctx, name)
}

// waitQuiesce sends one quiesce sentinel through h's pipeline and waits
// for its reply, or until ten seconds (or ctx) run out. The queue and the
// commits channel are FIFO, so the reply proves every job accepted before
// it applied AND committed — including one the worker had dequeued and
// was still folding or repairing, which no look at the channels' lengths
// can see. Promote calls it to order itself behind in-flight shipped
// batches.
func (h *hosted) waitQuiesce(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	j := job{quiesce: true, reply: make(chan jobReply, 1)}
	if h.enqueue(ctx, j) != nil {
		return false
	}
	_, err := h.await(ctx, j)
	return err == nil
}
