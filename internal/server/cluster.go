package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"cfdclean/internal/cluster/ship"
)

// Clustering: a static peer list, consistent hashing of session names
// across it, and a thin proxy on every node. Any node answers any
// request: if the session lives here as a primary it is served locally;
// if it lives here as a replica, reads are served from the replica and
// writes are refused with 421 plus the primary's address (X-Primary);
// otherwise the request is forwarded to the ring owner. The
// ForwardedHeader loop guard keeps a forwarded request from bouncing —
// a node receiving one always answers from local state.
//
// The local-primary-first rule is what makes failover work with a stale
// ring: after a follower is promoted, the ring still names the dead
// node as owner, but the promoted node now hosts the session as a
// primary and serves it regardless of what the ring says. Clients (and
// peers following 421 redirects) find it either directly or via the
// X-Primary address a follower hands out. The same rule serves a
// session on a node restarted with a new -peers list, wherever the new
// ring places its name: sessions stay where they are hosted.

// AckMode selects what a write waits for before the client is answered.
type AckMode int

const (
	// AckLeader answers after the primary's own fsync; replication to
	// the follower is asynchronous. A primary crash can lose batches the
	// follower had not yet received (they are still on the primary's
	// disk, recoverable — just not from the replica).
	AckLeader AckMode = iota
	// AckQuorum answers only after the follower has acknowledged the
	// batch too: an acknowledged write survives the loss of either node.
	// Ship failures still degrade rather than fail the write — a primary
	// with a dead follower keeps serving (availability over strictness;
	// the degradation is visible in the metrics and session listings).
	AckQuorum
)

// ParseAckMode maps the -ack flag values onto modes.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "leader":
		return AckLeader, nil
	case "quorum":
		return AckQuorum, nil
	}
	return 0, fmt.Errorf("unknown ack mode %q (want leader or quorum)", s)
}

func (m AckMode) String() string {
	switch m {
	case AckLeader:
		return "leader"
	case AckQuorum:
		return "quorum"
	}
	return fmt.Sprintf("AckMode(%d)", int(m))
}

// clusterState is one node's view of the cluster: its own address, the
// ack mode, and the consistent-hash ring over the -peers list, built at
// boot and fixed for the node's life. Membership changes by a restart
// with a new list; no session moves between nodes.
type clusterState struct {
	self string
	ack  AckMode
	ring *ship.Ring

	// proxyClient has no timeout of its own (forwarded requests inherit
	// the client's context, and SSE subscriptions are deliberately
	// long-lived); replication calls go through ship's own client.
	proxyClient *http.Client
}

func newClusterState(peers []string, self string, ack AckMode) *clusterState {
	return &clusterState{
		self:        self,
		ack:         ack,
		ring:        ship.NewRing(peers),
		proxyClient: &http.Client{},
	}
}

// primary returns the ring owner for a session name.
func (c *clusterState) primary(name string) string {
	return c.ring.Primary(name)
}

// shipTarget returns the peer this node ships name's batches to when it
// is the session's primary: the ring follower, unless that is self (or
// the ring is too small to have one).
func (c *clusterState) shipTarget(name string) string {
	f := c.ring.Follower(name)
	if f == c.self {
		return ""
	}
	return f
}

// baseURL turns a peer address into a base URL; bare host:port addresses
// get the http scheme.
func (c *clusterState) baseURL(peer string) string {
	if strings.Contains(peer, "://") {
		return peer
	}
	return "http://" + peer
}

// transport builds the shipping transport toward one peer.
func (c *clusterState) transport(peer string) *ship.HTTPTransport {
	return &ship.HTTPTransport{Base: c.baseURL(peer)}
}

// route is the cluster-mode entry point wrapped around the mux: decide
// locally, serve locally, or forward to the owner.
func (s *Server) route(w http.ResponseWriter, req *http.Request) {
	c := s.reg.cluster
	name, sub, routable, err := sessionTarget(s, w, req)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if !routable || name == "" || req.Header.Get(ship.ForwardedHeader) != "" {
		s.mux.ServeHTTP(w, req)
		return
	}
	if h, err := s.reg.Get(name); err == nil {
		if h.role.Load() == rolePrimary {
			// Local primary wins over the ring: this is how a freshly
			// promoted node serves sessions the (stale) ring still maps
			// to the dead peer.
			s.mux.ServeHTTP(w, req)
			return
		}
		// Hosted here as a replica: the read plane is local and live;
		// writes go to the primary, which the client learns via 421.
		if req.Method == http.MethodGet || sub == "promote" {
			s.mux.ServeHTTP(w, req)
			return
		}
		writeMisdirected(w, c.primary(name))
		return
	}
	owner := c.primary(name)
	if owner == "" || owner == c.self {
		s.mux.ServeHTTP(w, req)
		return
	}
	s.forward(w, req, owner)
}

// sessionTarget extracts the session name a request is about, plus the
// trailing operation segment ("apply", "events", "promote", ...).
// routable=false means the request is not session-scoped (metrics,
// health, replication traffic) and is always served locally. A create
// (POST /v1/sessions) is routable by the name inside its body, which is
// peeked through the body limit and restored: a body the peek cannot read
// whole (over MaxBodyBytes, or cut off) is the error, and a false return
// after the peek means the body is not JSON with a name, and the mux's 400
// path should have it.
func sessionTarget(s *Server, w http.ResponseWriter, req *http.Request) (name, sub string, routable bool, err error) {
	path := req.URL.Path
	if path == "/v1/sessions" {
		if req.Method != http.MethodPost {
			return "", "", false, nil
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.opts.MaxBodyBytes))
		if err != nil {
			return "", "", false, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		var peek struct {
			Name string `json:"name"`
		}
		// Unknown fields are fine here — the real decode validates.
		if json.Unmarshal(body, &peek) != nil {
			return "", "", false, nil
		}
		return peek.Name, "create", true, nil
	}
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return "", "", false, nil
	}
	seg, sub, _ := strings.Cut(rest, "/")
	name, err = url.PathUnescape(seg)
	if err != nil {
		return "", "", false, nil
	}
	return name, sub, true, nil
}

// forward proxies the request to owner, marking it so the peer serves it
// locally. Streaming responses (SSE, dumps) flush through; declared
// trailers (X-Dump-Complete) are copied after the body.
func (s *Server) forward(w http.ResponseWriter, req *http.Request, owner string) {
	c := s.reg.cluster
	out, err := http.NewRequestWithContext(req.Context(), req.Method,
		c.baseURL(owner)+req.URL.RequestURI(), req.Body)
	if err != nil {
		writeStatus(w, http.StatusBadGateway, fmt.Sprintf("forward to %s: %v", owner, err))
		return
	}
	out.Header = req.Header.Clone()
	out.Header.Set(ship.ForwardedHeader, c.self)
	resp, err := c.proxyClient.Do(out)
	if err != nil {
		writeStatus(w, http.StatusBadGateway, fmt.Sprintf("forward to %s: %v", owner, err))
		return
	}
	defer resp.Body.Close()
	hdr := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			hdr.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	copyFlush(w, resp.Body)
	for k, vs := range resp.Trailer {
		for _, v := range vs {
			hdr.Add(k, v)
		}
	}
}

// copyFlush streams src to w, flushing after every read so proxied SSE
// events and dump chunks reach the client as they arrive.
func copyFlush(w http.ResponseWriter, src io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// writeMisdirected answers a write that landed on a replica: 421 with
// the primary's address in both the X-Primary header and the body, the
// redirect contract clients follow.
func writeMisdirected(w http.ResponseWriter, primary string) {
	if primary != "" {
		w.Header().Set("X-Primary", primary)
	}
	writeJSON(w, http.StatusMisdirectedRequest, misdirectedResponse{
		Error:   "session is a replica on this node; write to the primary",
		Primary: primary,
	})
}

// replicaBodyLimit bounds replication request bodies by what the frame
// codec itself accepts (payload + frame header), not by MaxBodyBytes:
// the generic API cap is sized for client JSON, and applying it here
// would make any session whose snapshot outgrew it permanently unable
// to bootstrap or heal a follower. An installed snapshot stream is held
// to the same bound.
const replicaBodyLimit = ship.MaxFrameLen + 64

// replicaName gates the three /v1/replica/* handlers and returns the
// session name they act on. A node without peers serves no replication —
// register would host the shipped image as a writable primary there —
// and the name, which the mux matched on the unescaped path segment
// (%2e%2e is ".."), must be one a create would accept. ok=false means the
// 400 has been written.
func (s *Server) replicaName(w http.ResponseWriter, req *http.Request) (name string, ok bool) {
	name = req.PathValue("name")
	err := errNotClustered
	if s.reg.cluster != nil {
		err = validName(name)
	}
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err.Error())
	}
	return name, err == nil
}

var errNotClustered = errors.New("node is not clustered (start with -peers)")

// handleReplicaInstall receives a snapshot stream: PUT /v1/replica/{name}.
// InstallReplica reads the body as it arrives, under the install bound.
func (s *Server) handleReplicaInstall(w http.ResponseWriter, req *http.Request) {
	name, ok := s.replicaName(w, req)
	if !ok {
		return
	}
	if err := s.reg.InstallReplica(req.Context(), name, http.MaxBytesReader(w, req.Body, replicaBodyLimit)); err != nil {
		writeReplicationError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaBatch receives a batch frame: POST /v1/replica/{name}/batch.
func (s *Server) handleReplicaBatch(w http.ResponseWriter, req *http.Request) {
	name, ok := s.replicaName(w, req)
	if !ok {
		return
	}
	b, err := ship.ReadBatchFrame(http.MaxBytesReader(w, req.Body, replicaBodyLimit))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if err := s.reg.ReplicateBatch(req.Context(), name, b); err != nil {
		writeReplicationError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaDrop removes a local replica: DELETE /v1/replica/{name}.
func (s *Server) handleReplicaDrop(w http.ResponseWriter, req *http.Request) {
	name, ok := s.replicaName(w, req)
	if !ok {
		return
	}
	if err := s.reg.DropReplica(req.Context(), name); err != nil {
		writeReplicationError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handlePromote flips a replica to primary: POST /v1/sessions/{name}/promote.
// Idempotent — promoting a primary reports its current state.
func (s *Server) handlePromote(w http.ResponseWriter, req *http.Request) {
	h, err := s.reg.Promote(req.Context(), req.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{
		Session: h.name,
		Role:    h.roleString(),
		Version: h.sess.Snapshot().Version,
	})
}

// handleCluster reports the node's cluster view: GET /v1/cluster.
func (s *Server) handleCluster(w http.ResponseWriter, req *http.Request) {
	info := ClusterInfo{}
	c := s.reg.cluster
	if c != nil {
		info.Self = c.self
		info.Ack = c.ack.String()
		info.Peers = c.ring.Peers()
	}
	for _, h := range s.reg.List() {
		cs := ClusterSession{Name: h.name, Role: h.roleString(), Version: h.sess.Snapshot().Version}
		if c != nil {
			cs.Owner = c.primary(h.name)
		}
		if ref := h.shipper.Load(); ref != nil {
			st := ref.sp.Stats()
			cs.Follower = ref.target
			cs.Shipped = st.LastShipped
			cs.LastError = st.LastError
		}
		info.Sessions = append(info.Sessions, cs)
	}
	writeJSON(w, http.StatusOK, info)
}

// writeReplicationError maps replication-path errors: role conflicts to
// 421 (the shipper's stop signal), an image the node cannot take to 400
// or 413 (a delivery failure: reshipping it would fail alike), gaps and
// other replay failures to 409 (the shipper's resync signal), unknown
// sessions to 404 (bootstrap).
func writeReplicationError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errReplicaConflict):
		writeStatus(w, http.StatusMisdirectedRequest, err.Error())
	case errors.Is(err, errReplicaImage):
		writeBodyError(w, err)
	case errors.Is(err, ErrNotFound):
		writeStatus(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotDurable):
		writeStatus(w, http.StatusServiceUnavailable, err.Error())
	default:
		// Gaps and every other replay failure heal the same way: the
		// primary reships a full snapshot on 409.
		writeStatus(w, http.StatusConflict, err.Error())
	}
}

func (h *hosted) roleString() string {
	if h.role.Load() == roleFollower {
		return "follower"
	}
	return "primary"
}
