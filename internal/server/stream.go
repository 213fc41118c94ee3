package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"cfdclean/internal/metrics"
)

// The notification stream: every engine pass publishes one Event to the
// session's subscribers, and GET /v1/sessions/{name}/events serves them
// as server-sent events (SSE). The fan-out is fully asynchronous — the
// committer hands the event to a per-session fanout goroutine and moves
// on, so neither the engine worker nor the commit path ever waits on
// marshaling or on a slow reader. Delivery is best-effort by design: a
// subscriber that cannot keep up has whole events dropped (never torn
// ones), and the next event it does receive carries "resync": true to
// say the sequence has a gap — the authoritative state is always the
// session snapshot, which every event carries.
//
// Every event is written with an SSE "id:" line holding the journal
// version it advanced the session to, and a bounded ring of recent
// events is retained. A client that reconnects with Last-Event-ID
// resumes by replaying the ring's tail past that version — the journal
// tail, not a full resync — and only when the ring no longer covers
// the version does the replay fall back to resync semantics.

// subscriber is one SSE consumer: a bounded event buffer plus the
// gap flag that turns its next delivered event into a resync marker.
// afterSeq fences live delivery against the replay handed out at
// subscribe time: passes up to that engine sequence were already
// replayed (or already seen by the resuming client), so deliver skips
// them even if they are still in flight through the fanout queue.
type subscriber struct {
	ch       chan frame
	dropped  bool
	afterSeq uint64
}

// frame is one wire-ready SSE event: the marshaled data line plus the
// journal version for its id: line.
type frame struct {
	version uint64
	data    []byte
}

// subscribers is a session's event fan-out: subscriptions guarded by mu,
// and a lazily started fanout goroutine fed through queue. Lifecycle
// rule: publish is only called by the session's committer, and closeAll
// only after the committer has exited (see hosted.run's defer order), so
// publish never races the queue being closed.
type subscribers struct {
	mu     sync.Mutex
	m      map[int]*subscriber
	next   int
	closed bool

	queue   chan Event
	fanDone chan struct{}
	// drops counts events dropped at slow consumers (nil on bare test
	// fixtures).
	drops *metrics.Counter
	// max caps concurrent subscribers (0 = unlimited); set from the
	// session's quota at registration.
	max int

	// ring retains the most recent events in pass order for
	// Last-Event-ID replay; unmarshaled Event values, so retention costs
	// no marshaling on the committer path. dropVersion is the version of
	// the newest event ever evicted — a resume id at or past it is fully
	// covered by the ring.
	ring        []Event
	ringN       int // total events ever published
	ringCap     int // 0 means eventRingSize (tests shrink it)
	dropVersion uint64
}

const (
	subscriberBuffer = 16
	fanoutBuffer     = 64
	// eventRingSize bounds the replayable tail per session.
	eventRingSize = 256
)

func (s *subscribers) cap() int {
	if s.ringCap > 0 {
		return s.ringCap
	}
	return eventRingSize
}

// record appends ev to the replay ring. Called with mu held, by
// publish only — so ring order is pass order.
func (s *subscribers) record(ev Event) {
	c := s.cap()
	if len(s.ring) < c {
		s.ring = append(s.ring, ev)
	} else {
		i := s.ringN % c
		s.dropVersion = s.ring[i].Snapshot.Version
		s.ring[i] = ev
	}
	s.ringN++
}

// tail returns the ring's events newer than version, in pass order.
// Called with mu held.
func (s *subscribers) tail(version uint64) []Event {
	c := s.cap()
	n := len(s.ring)
	var out []Event
	for i := s.ringN - n; i < s.ringN; i++ {
		if ev := s.ring[i%c]; ev.Snapshot.Version > version {
			out = append(out, ev)
		}
	}
	return out
}

// newestSeq returns the engine sequence of the newest ring event, 0 on
// an empty ring. Called with mu held.
func (s *subscribers) newestSeq() uint64 {
	if len(s.ring) == 0 {
		return 0
	}
	return s.ring[(s.ringN-1)%s.cap()].Seq
}

// subscribe registers a new event consumer; the returned cancel is
// idempotent and must be called when the consumer goes away. A nil
// channel is returned after closeAll (session shut down) or when the
// session's subscriber cap is reached.
func (s *subscribers) subscribe() (ch chan frame, cancel func()) {
	ch, _, cancel, _ = s.subscribeFrom(0, false)
	return ch, cancel
}

// subscribeFrom registers a consumer resuming after journal version
// lastID (resume false means a fresh subscription with no replay).
// Registration and replay capture happen under one lock hold, so the
// replay plus subsequent live delivery covers every pass exactly once:
// the subscriber's afterSeq fence skips live events the replay already
// contains. When the ring no longer covers lastID the whole retained
// tail is replayed with the first event resync-flagged — the gap is
// announced, and the embedded snapshots re-anchor the client.
// A session at its subscriber cap refuses with ErrSubscriberLimit
// (mapped to 409): an existing consumer must disconnect first.
func (s *subscribers) subscribeFrom(lastID uint64, resume bool) (ch chan frame, replay []Event, cancel func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, func() {}, nil
	}
	if s.max > 0 && len(s.m) >= s.max {
		return nil, nil, func() {}, fmt.Errorf("%w: %d subscribers connected, cap %d", ErrSubscriberLimit, len(s.m), s.max)
	}
	if s.m == nil {
		s.m = make(map[int]*subscriber)
	}
	id := s.next
	s.next++
	sub := &subscriber{ch: make(chan frame, subscriberBuffer)}
	if resume {
		sub.afterSeq = s.newestSeq()
		if lastID >= s.dropVersion {
			replay = s.tail(lastID)
		} else {
			// The tail past lastID is partly evicted: replay what is
			// retained and flag the gap on its first event.
			replay = s.tail(0)
			if len(replay) > 0 {
				head := replay[0]
				head.Resync = true
				replay[0] = head
			} else {
				sub.dropped = true
			}
		}
	}
	s.m[id] = sub
	return sub.ch, replay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := s.m[id]; ok {
			delete(s.m, id)
			close(c.ch)
		}
	}, nil
}

// publish records ev in the replay ring and hands it to the fanout
// goroutine without blocking. If even the fanout queue is saturated the
// event is dropped at every current subscriber — they all get
// resync-flagged — because the committer must keep acknowledging
// batches no matter how slow the stream side is. The ring still gets
// the event, so resumers are unaffected by fanout saturation.
func (s *subscribers) publish(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.record(ev)
	if s.queue == nil {
		s.queue = make(chan Event, fanoutBuffer)
		s.fanDone = make(chan struct{})
		go s.fanout(s.queue)
	}
	q := s.queue
	s.mu.Unlock()
	select {
	case q <- ev:
	default:
		s.mu.Lock()
		n := len(s.m)
		for _, sub := range s.m {
			sub.dropped = true
		}
		s.mu.Unlock()
		s.drops.Add(uint64(n))
	}
}

func (s *subscribers) fanout(queue chan Event) {
	defer close(s.fanDone)
	for ev := range queue {
		s.deliver(ev)
	}
}

// deliver marshals ev (lazily: plain and resync variants only when a
// subscriber of that kind exists) and offers the bytes to every
// subscriber buffer. Running under mu makes delivery safe against
// concurrent cancel/closeAll closing a subscriber channel — the close
// happens under the same lock.
func (s *subscribers) deliver(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.m) == 0 {
		return
	}
	var plain, resync []byte
	for _, sub := range s.m {
		if ev.Seq <= sub.afterSeq {
			// Already covered by this subscriber's replay.
			continue
		}
		var b []byte
		if sub.dropped {
			if resync == nil {
				rev := ev
				rev.Resync = true
				resync, _ = json.Marshal(rev)
			}
			b = resync
		} else {
			if plain == nil {
				plain, _ = json.Marshal(ev)
			}
			b = plain
		}
		if b == nil {
			continue
		}
		select {
		case sub.ch <- frame{version: ev.Snapshot.Version, data: b}:
			sub.dropped = false
			sub.afterSeq = ev.Seq
		default:
			sub.dropped = true
			s.drops.Add(1)
		}
	}
}

// closeAll terminates every subscription and stops the fanout
// goroutine; streams end cleanly when the session's worker exits.
func (s *subscribers) closeAll() {
	s.mu.Lock()
	s.closed = true
	for id, sub := range s.m {
		delete(s.m, id)
		close(sub.ch)
	}
	q := s.queue
	s.queue = nil
	s.mu.Unlock()
	if q != nil {
		close(q)
		<-s.fanDone
	}
}

// writeSSE writes one SSE event: the id: line carries the journal
// version the event advanced the session to, which is what a client
// sends back as Last-Event-ID to resume.
func writeSSE(w http.ResponseWriter, version uint64, data []byte) {
	fmt.Fprintf(w, "id: %d\nevent: batch\ndata: %s\n\n", version, data)
}

// handleEvents serves the SSE stream for one session: one "batch" event
// per engine pass, ending when the client disconnects or the session
// shuts down. An event with "resync": true means earlier events were
// dropped for this subscriber; its embedded snapshot is still current.
// A reconnect carrying Last-Event-ID: <version> first replays the
// retained event tail past that version — no full resync while the
// ring covers the gap.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	h, err := s.reg.Get(req.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeStatus(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	var lastID uint64
	resume := false
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		if id, err := strconv.ParseUint(v, 10, 64); err == nil {
			lastID, resume = id, true
		}
	}
	ch, replay, cancel, err := h.subs.subscribeFrom(lastID, resume)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Session-Version", strconv.FormatUint(h.sess.Snapshot().Version, 10))
	w.WriteHeader(http.StatusOK)
	// An initial comment line lets clients know the stream is live
	// before the first pass happens.
	fmt.Fprintf(w, ": stream open session=%s\n\n", h.name)
	// Replay marshaling happens here, on the reader's goroutine — the
	// ring keeps Event values precisely so resumers never put marshal
	// work on the committer or fanout path.
	for _, ev := range replay {
		b, _ := json.Marshal(ev)
		writeSSE(w, ev.Snapshot.Version, b)
	}
	fl.Flush()
	if ch == nil {
		return
	}
	for {
		select {
		case fr, ok := <-ch:
			if !ok {
				return
			}
			writeSSE(w, fr.version, fr.data)
			fl.Flush()
		case <-req.Context().Done():
			return
		case <-h.done:
			return
		}
	}
}
