package ship

import (
	"errors"
	"fmt"
	"sync"

	"cfdclean/internal/increpair"
	"cfdclean/internal/wal"
)

// Replica is the follower side of one session's shipping stream: a live
// increpair.Session kept in lockstep with the primary by replaying
// shipped batches under the WAL's journal-version discipline. It is the
// reference applier — the server wraps the same rules around its hosted
// sessions — and what the failover and fault-injection batteries drive
// directly.
//
// The invariant a Replica maintains is simple and absolute: its session
// only ever holds states the primary's session held, in order. A batch
// that would skip ahead is refused with ErrGap; a duplicate is skipped;
// only a snapshot install may move the session non-incrementally, and a
// snapshot is by construction a quiescent primary state.
type Replica struct {
	mu      sync.Mutex
	name    string
	workers int
	sess    *increpair.Session

	applied  uint64
	skipped  uint64
	installs uint64
}

// NewReplica creates an empty replica for the named session. workers
// bounds the replay engine's intra-batch parallelism (output is
// byte-identical at any setting; 0 keeps each snapshot's recorded
// value).
func NewReplica(name string, workers int) *Replica {
	return &Replica{name: name, workers: workers}
}

// InstallSnapshot replaces the replica's state with a full primary
// image — the bootstrap for a follower joining mid-stream and the
// healing move after any gap.
func (r *Replica) InstallSnapshot(snap *wal.Snapshot) error {
	sess, err := increpair.RestoreFromSnapshot(snap, r.workers)
	if err != nil {
		return fmt.Errorf("ship: replica %s: install: %w", r.name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess != nil {
		r.sess.Close()
	}
	r.sess = sess
	r.installs++
	return nil
}

// ApplyBatch applies one shipped batch under the replay discipline:
// duplicates are skipped (applied=false, nil error), a gap is refused
// with an ErrGap-wrapped error and the replica state is untouched — a
// batch is never applied out of order.
func (r *Replica) ApplyBatch(b *wal.Batch) (applied bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return false, fmt.Errorf("%w: replica %s not bootstrapped", ErrGap, r.name)
	}
	applied, err = r.sess.ReplayBatch(b)
	if err != nil {
		if isGap(err) {
			return false, fmt.Errorf("%w: %v", ErrGap, err)
		}
		return applied, err
	}
	if applied {
		r.applied++
	} else {
		r.skipped++
	}
	return applied, nil
}

// Session exposes the replica's live session for reads and for
// promotion; nil before the first snapshot install.
func (r *Replica) Session() *increpair.Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess
}

// Version is the replica's journal version cursor (0 before bootstrap).
func (r *Replica) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return 0
	}
	return r.sess.Snapshot().Version
}

// Stats reports how the replica got to its current state.
func (r *Replica) Stats() (applied, skipped, installs uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.skipped, r.installs
}

// Close releases the replica's session.
func (r *Replica) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess != nil {
		r.sess.Close()
		r.sess = nil
	}
}

func isGap(err error) bool {
	return errors.Is(err, increpair.ErrReplayGap) || errors.Is(err, ErrGap)
}
