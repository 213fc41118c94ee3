package server

import (
	"context"
	"errors"
	"fmt"
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
	// errReplicaMisnamed reports a shipped image that names another
	// session — mapped to 400: a resync would ship the same image again.
	errReplicaMisnamed = errors.New("server: snapshot names another session")
)

// InstallReplica installs (or replaces) a follower session from a
// shipped snapshot — the bootstrap for a follower joining mid-stream and
// the healing move after any gap. An existing follower under the name is
// removed, files and all, once the image has proven restorable, and
// rebuilt from it; a primary under the name refuses with
// errReplicaConflict, and an image naming another session, as recovery
// does, with errReplicaMisnamed.
func (r *Registry) InstallReplica(ctx context.Context, name string, snap *wal.Snapshot) error {
	if r.draining.Load() {
		return ErrDraining
	}
	if snap.Name != "" && snap.Name != name {
		return fmt.Errorf("%w: install %s: image names %q", errReplicaMisnamed, name, snap.Name)
	}
	r.installMu.Lock()
	defer r.installMu.Unlock()
	h, err := r.Get(name)
	if err == nil && h.role.Load() != roleFollower {
		return errReplicaConflict
	}
	sess, rerr := increpair.RestoreFromSnapshot(snap, 0)
	if rerr != nil {
		return fmt.Errorf("server: install replica %s: %w", name, rerr)
	}
	if err == nil {
		if err := r.Remove(ctx, name); err != nil && !errors.Is(err, ErrNotFound) {
			sess.Close()
			return err
		}
	}
	// The quota travels in the snapshot header (it only matters after
	// promotion — followers take no writes).
	if _, err := r.register(name, sess, sess.Current().Schema(), nil, snap.Quota, roleFollower); err != nil {
		sess.Close()
		return err
	}
	return nil
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
// following — continues as its own. A shipped batch in the pipeline when
// the role flips either was replayed before it or is refused after it,
// never half of each, and Promote returns behind all of them (the
// quiesce sentinel). Idempotent: promoting a primary is a no-op.
// Re-establishing replication toward a new follower is the ring's
// business: after a failover promotion the old primary is presumed dead,
// and a two-node cluster has no third peer to ship to, so a shipper is
// started only when the updated peer list (PUT /v1/cluster/peers) or the
// ring already names this node the session's owner with a live follower.
func (r *Registry) Promote(ctx context.Context, name string) (*hosted, error) {
	h, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if h.role.CompareAndSwap(roleFollower, rolePrimary) {
		// The durable role flips with the live one: a promoted session
		// restarting must come back a primary, not re-demote itself.
		if h.pers != nil {
			if err := writeRoleMarker(h.pers.dir, false); err != nil {
				h.pers.markBroken(err)
			}
		}
		if !h.waitQuiesce(ctx) {
			return nil, fmt.Errorf("%w: promote %s: pipeline did not quiesce", ErrDraining, name)
		}
		if c := r.cluster; c != nil {
			// Ship onward only when the ring says this node owns the
			// session (a rebalance transfer): the target is then the
			// ring follower, which is neither self nor a dead peer.
			if c.primary(name) == c.self {
				if target := c.shipTarget(name); target != "" {
					h.startShipper(r, target)
				}
			}
		}
	}
	return h, nil
}

// DropReplica removes a follower session from this node — the cleanup
// path when the primary deletes the session or a rebalance moves its
// replica elsewhere. Refuses for primaries: deleting live state needs
// the ordinary DELETE, routed to the owner.
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

// waitQuiesce blocks until h's pipeline is provably empty — every job
// accepted before the call is applied AND committed — or ten seconds (or
// ctx) run out. Rebalance uses it after flipping a primary to follower:
// new writes are already refused, so once the pipeline drains the
// session is quiescent and the transfer snapshot captured next misses
// nothing acknowledged. Promote uses it to order itself behind in-flight
// shipped batches.
//
// Quiescence is positive, not inferred: a quiesce sentinel job rides
// the FIFO queue and the FIFO commits channel, so its reply proves the
// drain. Polling len(queue)+len(commits) cannot — a 202-accepted ingest
// the worker has dequeued and is still folding or repairing is in
// neither channel, and a snapshot captured across it would silently lose
// the batch when the local session is purged after transfer. A straggler
// write that slipped past the role flip re-arms the loop: the sentinel
// is resent until both channels are empty at acknowledgement time.
func (h *hosted) waitQuiesce(ctx context.Context) bool {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		j := job{quiesce: true, reply: make(chan jobReply, 1)}
		if h.enqueue(ctx, j) != nil {
			return false
		}
		if _, err := h.await(ctx, j); err != nil {
			return false
		}
		if len(h.queue) == 0 && len(h.commits) == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}
