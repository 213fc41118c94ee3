package ship

import (
	"errors"
	"sync"
	"sync/atomic"

	"cfdclean/internal/metrics"
	"cfdclean/internal/wal"
)

// shipQueueDepth bounds the async shipping backlog per session. A full
// queue drops the batch — deliberately: the follower will refuse the
// next batch it does see with a gap, and the shipper heals that with a
// snapshot resync, so dropping never diverges state, it only costs one
// snapshot send. Blocking the committer on a slow follower would.
const shipQueueDepth = 128

// Shipper is the primary side of one session's replication stream. The
// committer hands it every committed batch (after the local fsync, so a
// follower can never be ahead of the primary's own durability); the
// shipper forwards frames to the follower and heals every refusal —
// gap, missing replica, lost frames — by reshipping a fresh snapshot
// captured from the live session. The bootstrap and these heals are the
// only images it sends: a pass the primary could not commit ships
// nothing, and the follower refuses the next batch as a gap.
//
// Two delivery modes share one serialized send path: EnqueueBatch is
// fire-and-forget for ack=leader (a background goroutine drains the
// queue), ShipSync blocks for ack=quorum (the committer waits for the
// follower's acknowledgement before answering the client). Failures in
// either mode degrade replication — counted, never fatal to the write
// path: a primary with a dead follower keeps serving, which is the
// availability half of the bargain, and the Stats surface is how the
// operator sees the lag.
type Shipper struct {
	name   string
	tr     Transport
	snapFn func() (*wal.Snapshot, error)

	// sendMu serializes all transport sends (bootstrap, queue drain and
	// sync ships), so frames leave in commit order.
	sendMu     sync.Mutex
	needSnap   bool
	failStreak int

	queue     chan *wal.Batch
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	c           Counters
	lastShipped atomic.Uint64
	// lastErr holds the most recent delivery failure as a string (""
	// when the last delivery succeeded): the loud, human-readable signal
	// for a stream that is persistently failing — e.g. a snapshot the
	// receiver keeps refusing — which a bare Degraded counter buries.
	lastErr atomic.Value
}

func (s *Shipper) noteErr(err error) {
	s.lastErr.Store(err.Error())
}

func (s *Shipper) noteOK() {
	s.lastErr.Store("")
}

// ShipStats is a point-in-time view of one shipping stream.
type ShipStats struct {
	Batches     uint64 // batches acknowledged by the follower
	Snapshots   uint64 // snapshot installs (bootstrap + resyncs)
	Degraded    uint64 // delivery failures absorbed
	Dropped     uint64 // frames dropped on a full backlog or backoff
	LastShipped uint64 // journal version the follower has acknowledged
	LastError   string // most recent delivery failure; "" when healthy
}

// Counters are a shipping stream's delivery counts (see ShipStats).
type Counters struct {
	Batches, Snapshots, Degraded, Dropped *metrics.Counter
}

// NewShipper starts a shipping stream for the named session. snapFn
// captures a fresh quiescent snapshot from the live session — it is
// the bootstrap image and the healing move for every gap. The follower
// is bootstrapped immediately in the background. The stream counts into
// children of totals (nil fields count nowhere else), so a node's totals
// keep every delivery of a stream that has since stopped.
func NewShipper(name string, tr Transport, snapFn func() (*wal.Snapshot, error), totals Counters) *Shipper {
	s := &Shipper{
		name:   name,
		tr:     tr,
		snapFn: snapFn,
		c: Counters{totals.Batches.Child(), totals.Snapshots.Child(),
			totals.Degraded.Child(), totals.Dropped.Child()},
		needSnap: true,
		queue:    make(chan *wal.Batch, shipQueueDepth),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *Shipper) loop() {
	defer close(s.done)
	// Bootstrap the follower right away instead of waiting for the
	// first write; a nil batch just triggers the pending-snapshot path.
	s.send(nil)
	for {
		select {
		case <-s.quit:
			return
		case b := <-s.queue:
			s.send(b)
		}
	}
}

// EnqueueBatch ships a committed batch asynchronously (ack=leader). A
// full backlog drops the frame; the follower's gap detection turns the
// loss into a snapshot resync.
func (s *Shipper) EnqueueBatch(b *wal.Batch) {
	select {
	case s.queue <- b:
	default:
		s.c.Dropped.Add(1)
	}
}

// ShipSync ships a committed batch and waits for the follower's
// acknowledgement (ack=quorum). The returned error means the follower
// did not acknowledge — the caller decides whether that degrades or
// fails the write; replication state heals either way.
func (s *Shipper) ShipSync(b *wal.Batch) error {
	return s.send(b)
}

// send is the single serialized delivery path. It resolves any pending
// snapshot need first (bootstrap or healing), then the batch itself;
// a batch refused for a gap is converted into a fresh snapshot ship,
// which by construction contains the batch.
func (s *Shipper) send(b *wal.Batch) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.needSnap {
		if !retryAt(s.failStreak) {
			// The follower has been refusing deliveries; back off
			// instead of eating a transport timeout (or capturing a
			// full image) per committed batch.
			s.failStreak++
			s.c.Dropped.Add(1)
			return errors.New("ship: follower unavailable, frame dropped")
		}
		if err := s.resyncLocked(); err != nil {
			return err
		}
		// The fresh snapshot contains every committed batch, this one
		// included.
		return nil
	}
	if b == nil {
		return nil
	}
	err := s.tr.ShipBatch(s.name, b)
	switch {
	case err == nil:
		s.failStreak = 0
		s.c.Batches.Add(1)
		s.lastShipped.Store(b.Version)
		s.noteOK()
		return nil
	case errors.Is(err, ErrGap), errors.Is(err, ErrUnknownReplica):
		// The follower can't chain this batch (lost frames, or it's
		// joining fresh): heal with a full image.
		return s.resyncLocked()
	case errors.Is(err, ErrRoleConflict):
		// The target believes it is the primary. Resyncing would split
		// the brain; stop and surface through Stats.
		s.c.Degraded.Add(1)
		s.noteErr(err)
		return err
	default:
		// A failed batch leaves a hole the follower will refuse anyway:
		// mark the stream for snapshot healing, which also routes every
		// subsequent send through the failStreak backoff above. A
		// black-holed follower then costs one transport timeout per
		// power-of-two streak, not one per committed write — without
		// this, every ack=quorum write blocks for the full transport
		// timeout until the follower returns.
		s.needSnap = true
		s.failStreak++
		s.c.Degraded.Add(1)
		s.noteErr(err)
		return err
	}
}

// resyncLocked captures a fresh image and ships it. A failure of either
// step leaves the stream owing a snapshot, retried on the backoff
// schedule.
func (s *Shipper) resyncLocked() error {
	snap, err := s.snapFn()
	if err == nil {
		err = s.tr.ShipSnapshot(s.name, snap)
	}
	if err != nil {
		s.needSnap = true
		s.failStreak++
		s.c.Degraded.Add(1)
		s.noteErr(err)
		return err
	}
	s.needSnap = false
	s.failStreak = 0
	s.c.Snapshots.Add(1)
	if v := snap.Version; v > s.lastShipped.Load() {
		s.lastShipped.Store(v)
	}
	s.noteOK()
	return nil
}

// retryAt spaces snapshot attempts out exponentially over a failure
// streak (attempt on streaks 0, 1, 2, 4, 8, ...), so a dead follower
// does not cost a full state capture per committed batch.
func retryAt(streak int) bool {
	return streak&(streak-1) == 0
}

// Stats reports the stream's delivery counters.
func (s *Shipper) Stats() ShipStats {
	le, _ := s.lastErr.Load().(string)
	return ShipStats{
		Batches:     s.c.Batches.Load(),
		Snapshots:   s.c.Snapshots.Load(),
		Degraded:    s.c.Degraded.Load(),
		Dropped:     s.c.Dropped.Load(),
		LastShipped: s.lastShipped.Load(),
		LastError:   le,
	}
}

// Close stops the background drain. Frames still queued are discarded;
// a promoted or removed session has no follower to feed.
func (s *Shipper) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	<-s.done
}
