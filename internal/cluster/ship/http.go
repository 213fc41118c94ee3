package ship

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"cfdclean/internal/wal"
)

// HTTPTransport delivers to a peer cfdserved node over its replication
// endpoints:
//
//	PUT    /v1/replica/{name}        a snapshot stream (install/replace)
//	POST   /v1/replica/{name}/batch  one batch frame
//	DELETE /v1/replica/{name}        drop the replica
//
// The peer answers 404 when it hosts no replica for the session
// (bootstrap needed), 409 when the batch cannot chain (resync needed)
// and 421 when it hosts the session as a primary (stop); those map to
// the package's sentinel errors so the Shipper's healing logic is
// transport-independent. A snapshot the peer cannot read — another
// format version, a body cut short or over the install bound — is a 400
// or 413, an ordinary delivery failure.
type HTTPTransport struct {
	// Base is the peer's base URL, e.g. "http://10.0.0.2:8344".
	Base string
}

// peerClient carries every node-to-node call; its timeout bounds a
// snapshot stream too.
var peerClient = &http.Client{Timeout: 2 * time.Minute}

func (t *HTTPTransport) replicaURL(name, suffix string) string {
	return t.Base + "/v1/replica/" + url.PathEscape(name) + suffix
}

// ShipSnapshot implements Transport. The body is the snapshot's stream
// (wal.Snapshot.Stream), read in place from the image it holds.
func (t *HTTPTransport) ShipSnapshot(name string, snap *wal.Snapshot) error {
	body, n, err := snap.Stream()
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, t.replicaURL(name, ""), body)
	if err != nil {
		return err
	}
	// A retry on a stale pooled connection reads the stream afresh.
	req.ContentLength, req.GetBody = n, func() (io.ReadCloser, error) {
		body, _, err := snap.Stream()
		return io.NopCloser(body), err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return t.do(req)
}

// ShipBatch implements Transport.
func (t *HTTPTransport) ShipBatch(name string, b *wal.Batch) error {
	req, err := http.NewRequest(http.MethodPost, t.replicaURL(name, "/batch"), bytes.NewReader(EncodeBatchFrame(b)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return t.do(req)
}

// Drop asks the peer to delete its replica of name — what a primary
// sends its follower when the session is deleted. A peer that holds no
// replica has nothing to drop.
func (t *HTTPTransport) Drop(name string) error {
	req, err := http.NewRequest(http.MethodDelete, t.replicaURL(name, ""), nil)
	if err != nil {
		return err
	}
	if err := t.do(req); err != nil && !errors.Is(err, ErrUnknownReplica) {
		return err
	}
	return nil
}

func (t *HTTPTransport) do(req *http.Request) error {
	resp, err := peerClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated, http.StatusNoContent:
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrUnknownReplica, t.Base)
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrGap, t.Base)
	case http.StatusMisdirectedRequest:
		return fmt.Errorf("%w: %s", ErrRoleConflict, t.Base)
	default:
		return fmt.Errorf("ship: %s %s: status %d: %s", req.Method, req.URL, resp.StatusCode, bytes.TrimSpace(body))
	}
}

// ForwardedHeader marks a request that already crossed the cluster
// once, forwarded by a peer's router, so the receiving router serves it
// locally instead of forwarding again (the loop guard of the thin-proxy
// scheme).
const ForwardedHeader = "X-CFD-Forwarded"

// LocalTransport delivers to in-process Replicas — the test harness's
// wire, and the reference for what a Transport must do. It round-trips
// every message through its codec so the bytes on this "wire" are
// exactly the bytes HTTP ships.
type LocalTransport struct {
	mu       sync.Mutex
	replicas map[string]*Replica
}

// NewLocalTransport creates an empty in-process follower node. workers
// drives nothing; the benchmark compiles against it until ROADMAP item
// 1(i)(b)'s renames.
func NewLocalTransport(workers int) *LocalTransport {
	return &LocalTransport{replicas: make(map[string]*Replica)}
}

// Replica returns the follower's replica for name, if any.
func (t *LocalTransport) Replica(name string) *Replica {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.replicas[name]
}

// ShipSnapshot implements Transport: install the replica from the
// snapshot's stream, creating the replica on first contact.
func (t *LocalTransport) ShipSnapshot(name string, snap *wal.Snapshot) error {
	stream, _, err := snap.Stream()
	if err != nil {
		return err
	}
	t.mu.Lock()
	r := t.replicas[name]
	if r == nil {
		r = NewReplica(name)
		t.replicas[name] = r
	}
	t.mu.Unlock()
	return r.Install(stream)
}

// ShipBatch implements Transport.
func (t *LocalTransport) ShipBatch(name string, b *wal.Batch) error {
	t.mu.Lock()
	r := t.replicas[name]
	t.mu.Unlock()
	if r == nil {
		return fmt.Errorf("%w: %s", ErrUnknownReplica, name)
	}
	got, err := ReadBatchFrame(bytes.NewReader(EncodeBatchFrame(b)))
	if err != nil {
		return err
	}
	_, err = r.ApplyBatch(got)
	return err
}

// Close releases every replica.
func (t *LocalTransport) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.replicas {
		r.Close()
	}
	t.replicas = map[string]*Replica{}
}
