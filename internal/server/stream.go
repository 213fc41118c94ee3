package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"cfdclean/internal/metrics"
)

// The notification stream: every engine pass appends one Event to the
// session's event log, and GET /v1/sessions/{name}/events serves it as
// server-sent events (SSE). The log is a bounded ring of the most recent
// events in pass order; appending never waits on a reader, so the
// committer acknowledges batches no matter how slow the stream side is.
// Each stream is a cursor into the ring, read on the stream's own
// goroutine, which also does the marshaling.
//
// Every event is written with an SSE "id:" line holding the journal
// version it advanced the session to. A client that reconnects with
// Last-Event-ID resumes after that version — the journal tail, not a full
// resync — while the ring covers it. When it does not, or when the ring
// overtakes a stream that reads too slowly, the stream gets the retained
// tail and its first event carries "resync": true to say the sequence has
// a gap; the authoritative state is the session snapshot every event
// carries.

// eventRingSize bounds the events a session retains: the replayable tail
// and the lag a stream may fall behind before it is resynced.
const eventRingSize = 256

// subscribers is a session's event log. Positions count events ever
// appended, so a stream's cursor survives the ring wrapping around.
// publish is called by the session's committer only, so ring order is
// pass order.
type subscribers struct {
	mu sync.Mutex
	// drops counts the events streams skipped because the ring overtook
	// them (nil on bare test fixtures).
	drops *metrics.Counter
	// max caps concurrent streams (0 = unlimited), n counts them; max is
	// set from the session's quota at registration.
	max, n int

	ring    []Event
	ringN   int // events ever appended; the position of the next one
	ringCap int // 0 means eventRingSize (tests shrink it)
	// dropVersion is the newest version the ring cannot replay past: the
	// version the session was hosted at, then the version of each evicted
	// event. A resume id at or past it is covered by the ring.
	dropVersion uint64
	// wake is closed by the next publish; nil until a stream waits.
	wake chan struct{}
}

// cursor is one stream's place in the log: the position of the next event
// it sends, and whether that event must carry resync.
type cursor struct {
	pos    int
	resync bool
}

func (s *subscribers) cap() int {
	if s.ringCap > 0 {
		return s.ringCap
	}
	return eventRingSize
}

// at returns the event at ring position i. Called with mu held.
func (s *subscribers) at(i int) Event { return s.ring[i%s.cap()] }

// publish appends ev to the ring and wakes every waiting stream.
func (s *subscribers) publish(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.cap(); len(s.ring) < c {
		s.ring = append(s.ring, ev)
	} else {
		i := s.ringN % c
		s.dropVersion = s.ring[i].Snapshot.Version
		s.ring[i] = ev
	}
	s.ringN++
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// open registers a stream and returns its cursor. A fresh stream (resume
// false) starts at the head. A resumed one starts after the newest event
// at or below lastID, so the replay is exactly the events past it. If the
// ring does not cover lastID — it is below dropVersion, or above the
// newest version, which means a deleted and re-created name — the stream
// starts at the oldest retained event with resync set. A session at its
// stream cap refuses with ErrSubscriberLimit (mapped to 409): an existing
// consumer must disconnect first.
func (s *subscribers) open(lastID uint64, resume bool) (cursor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.max > 0 && s.n >= s.max {
		return cursor{}, fmt.Errorf("%w: %d subscribers connected, cap %d", ErrSubscriberLimit, s.n, s.max)
	}
	s.n++
	c := cursor{pos: s.ringN}
	if !resume {
		return c, nil
	}
	first, head := s.ringN-len(s.ring), s.dropVersion
	if len(s.ring) > 0 {
		head = s.at(s.ringN - 1).Snapshot.Version
	}
	if lastID < s.dropVersion || lastID > head {
		return cursor{pos: first, resync: true}, nil
	}
	for c.pos > first && s.at(c.pos-1).Snapshot.Version > lastID {
		c.pos--
	}
	return c, nil
}

// close unregisters a stream opened by open.
func (s *subscribers) close() {
	s.mu.Lock()
	s.n--
	s.mu.Unlock()
}

// since returns the retained events from c's position on, in pass order,
// and moves c past them. If the ring has overtaken c, the events it
// skipped count as drops and the first event returned carries resync.
// With nothing new it returns the channel the next publish closes.
func (s *subscribers) since(c *cursor) ([]Event, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if first := s.ringN - len(s.ring); c.pos < first {
		s.drops.Add(uint64(first - c.pos))
		c.pos, c.resync = first, true
	}
	if c.pos == s.ringN {
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		return nil, s.wake
	}
	evs := make([]Event, 0, s.ringN-c.pos)
	for ; c.pos < s.ringN; c.pos++ {
		evs = append(evs, s.at(c.pos))
	}
	if c.resync {
		evs[0].Resync, c.resync = true, false
	}
	return evs, nil
}

// writeSSE writes one SSE event: the id: line carries the journal
// version the event advanced the session to, which is what a client
// sends back as Last-Event-ID to resume.
func writeSSE(w http.ResponseWriter, version uint64, data []byte) {
	fmt.Fprintf(w, "id: %d\nevent: batch\ndata: %s\n\n", version, data)
}

// handleEvents serves the SSE stream for one session: one "batch" event
// per engine pass, ending when the client disconnects or the session
// shuts down (after the events of its last passes). An event with
// "resync": true follows a gap in the sequence; its embedded snapshot is
// still current. A reconnect carrying Last-Event-ID: <version> first
// replays the retained event tail past that version — no resync while
// the ring covers the gap.
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
	cur, err := h.subs.open(lastID, resume)
	if err != nil {
		writeError(w, err)
		return
	}
	defer h.subs.close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Session-Version", strconv.FormatUint(h.sess.Snapshot().Version, 10))
	w.WriteHeader(http.StatusOK)
	// An initial comment line lets clients know the stream is live
	// before the first pass happens.
	fmt.Fprintf(w, ": stream open session=%s\n\n", h.name)
	for ended := false; ; {
		evs, wake := h.subs.since(&cur)
		for _, ev := range evs {
			b, _ := json.Marshal(ev)
			writeSSE(w, ev.Snapshot.Version, b)
		}
		fl.Flush()
		if len(evs) > 0 {
			continue
		}
		if ended {
			return
		}
		select {
		case <-wake:
		case <-req.Context().Done():
			return
		case <-h.done:
			// The committer has published its last event: send what is
			// left, then end.
			ended = true
		}
	}
}
