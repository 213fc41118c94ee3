package ship

import (
	"errors"
	"fmt"
	"io"
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
	mu   sync.Mutex
	name string
	sess *increpair.Session

	applied  uint64
	skipped  uint64
	installs uint64
}

// NewReplica creates an empty replica for the named session.
func NewReplica(name string) *Replica {
	return &Replica{name: name}
}

// Install replaces the replica's state with the primary image a snapshot
// stream holds, restored as it is read (increpair.RestoreSession) — the
// bootstrap for a follower joining mid-stream and the healing move after
// any gap. A stream that does not restore leaves the replica as it was.
func (r *Replica) Install(img io.Reader) error {
	sess, err := increpair.RestoreSession(img)
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

// Version is the replica's journal version cursor (0 before bootstrap).
func (r *Replica) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return 0
	}
	return r.sess.Snapshot().Version
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
