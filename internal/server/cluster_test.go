package server

// Two-node cluster tests: real HTTP between two Servers wired as peers
// — routing through the thin proxy, WAL shipping under ack=quorum,
// write fencing on the follower (421 + X-Primary), kill-the-primary
// failover with byte-identical promoted state, the read plane served
// from a replica across a mid-read promotion, quota shipping, and a
// survivor restarted without peers after a failover.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cfdclean/internal/wal"
)

type clusterNode struct {
	srv  *Server
	hs   *http.Server
	addr string
	url  string
}

// kill stops the node's listener without draining — the cluster-side
// view of a primary crash. The in-process Server object survives so the
// test can still introspect it, but no peer can reach it.
func (n *clusterNode) kill() { n.hs.Close() }

// newClusterPair boots two Servers on real loopback listeners, each
// configured with the other as a peer.
func newClusterPair(t *testing.T, mk func(self string, peers []string) Options) (*clusterNode, *clusterNode) {
	t.Helper()
	ns := newCluster(t, mk, 2)
	return ns[0], ns[1]
}

// newCluster boots n Servers on real loopback listeners, each configured
// with the n addresses plus others as its peers.
func newCluster(t *testing.T, mk func(self string, peers []string) Options, n int, others ...string) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := slices.Clone(others)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers = append(peers, ln.Addr().String())
	}
	nodes := make([]*clusterNode, n)
	for i, ln := range lns {
		self := ln.Addr().String()
		s := New(mk(self, peers))
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		node := &clusterNode{srv: s, hs: hs, addr: self, url: "http://" + self}
		t.Cleanup(func() {
			node.hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		nodes[i] = node
	}
	return nodes
}

// restart stops the node gracefully and boots a fresh Server on its data
// dir, address and identity — an ordinary node restart.
func (n *clusterNode) restart(t *testing.T, opts Options) *Server {
	t.Helper()
	n.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err := n.srv.Shutdown(ctx)
	cancel()
	if err != nil {
		t.Fatalf("shutdown of %s: %v", n.addr, err)
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(opts)
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	hs2 := &http.Server{Handler: s2.Handler()}
	go hs2.Serve(ln)
	t.Cleanup(func() {
		hs2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	// Drop keep-alive connections pooled against the dead server: a
	// non-replayable POST reusing one would surface EOF instead of
	// reaching the restarted node.
	http.DefaultClient.CloseIdleConnections()
	n.srv, n.hs = s2, hs2
	return s2
}

func quorumOpts(self string, peers []string) Options {
	return Options{QueueDepth: 16, Peers: peers, Self: self, Ack: AckQuorum}
}

// ownerAndFollower resolves which node the ring makes primary for name.
func ownerAndFollower(a, b *clusterNode, name string) (owner, follower *clusterNode) {
	if a.srv.reg.cluster.primary(name) == a.addr {
		return a, b
	}
	return b, a
}

// waitFollower polls until the node hosts name as a replica (the
// shipper bootstraps in the background).
func waitFollower(t *testing.T, n *clusterNode, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := do(t, "GET", n.url+"/v1/cluster", nil)
		if resp.StatusCode == http.StatusOK {
			var ci ClusterInfo
			if err := json.Unmarshal(body, &ci); err != nil {
				t.Fatal(err)
			}
			for _, cs := range ci.Sessions {
				if cs.Name == name && cs.Role == "follower" {
					return
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower for %q never appeared on %s", name, n.addr)
}

// TestClusterEmptyNodeListsNoSessions: a node that hosts no session, in a
// cluster or alone, answers GET /v1/cluster with "sessions": [], not null,
// as GET /v1/sessions does.
func TestClusterEmptyNodeListsNoSessions(t *testing.T) {
	a, _ := newClusterPair(t, quorumOpts)
	_, single := newTestService(t, Options{})
	for _, url := range []string{a.url, single.URL} {
		resp, body := do(t, "GET", url+"/v1/cluster", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/v1/cluster: %d: %s", url, resp.StatusCode, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		if got := string(fields["sessions"]); got != "[]" {
			t.Fatalf("GET %s/v1/cluster on an empty node: sessions %s, want []; body %s", url, got, body)
		}
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	return do(t, "GET", url, nil)
}

// readState captures what the failover acceptance compares: the full
// CSV dump bytes and the violation listing body (minus the session
// version header, asserted separately).
func readState(t *testing.T, base, name string) (dump []byte, vios ViolationsResponse) {
	t.Helper()
	resp, body := getBody(t, base+"/v1/sessions/"+name+"/dump")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump: %d: %s", resp.StatusCode, body)
	}
	dump = body
	resp, body = getBody(t, base+"/v1/sessions/"+name+"/violations")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("violations: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &vios); err != nil {
		t.Fatal(err)
	}
	return dump, vios
}

func applyDirty(t *testing.T, base, name string, i int) ApplyResponse {
	t.Helper()
	resp, body := do(t, "POST", base+"/v1/sessions/"+name+"/apply", ApplyRequest{
		Inserts: []WireTuple{
			{Vals: []*string{strp("212"), strp("NYC")}},
			{Vals: []*string{strp("212"), strp(fmt.Sprintf("X%d", i))}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply %d: %d: %s", i, resp.StatusCode, body)
	}
	var ar ApplyResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestClusterFailover is the end-to-end tentpole check: create through
// the router, replicate under ack=quorum, fence writes on the follower,
// kill the primary, promote, and require the promoted node to serve the
// exact bytes the primary would have — then keep accepting writes.
func TestClusterFailover(t *testing.T) {
	a, b := newClusterPair(t, quorumOpts)
	const name = "orders"
	owner, follower := ownerAndFollower(a, b, name)

	// Create via the NON-owner: the router must forward to the owner.
	createTiny(t, follower.url, name)
	waitFollower(t, follower, name)

	var lastSeq uint64
	for i := 0; i < 5; i++ {
		lastSeq = applyDirty(t, owner.url, name, i).Seq
	}

	// Under quorum ack every reply means the follower acknowledged, so
	// both nodes serve identical bytes immediately.
	wantDump, wantVios := readState(t, owner.url, name)
	gotDump, gotVios := readState(t, follower.url, name)
	if !bytes.Equal(wantDump, gotDump) {
		t.Fatalf("replica dump differs:\nprimary:\n%s\nfollower:\n%s", wantDump, gotDump)
	}
	if wantVios.Total != gotVios.Total || wantVios.Version != gotVios.Version {
		t.Fatalf("replica violations differ: %+v vs %+v", wantVios, gotVios)
	}

	// Writes to the follower are fenced with 421 and the primary's
	// address — the client redirect contract.
	resp, body := do(t, "POST", follower.url+"/v1/sessions/"+name+"/apply", ApplyRequest{
		Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
	})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower write: %d (want 421): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Primary"); got != owner.addr {
		t.Fatalf("X-Primary = %q, want %q", got, owner.addr)
	}
	var mis misdirectedResponse
	if err := json.Unmarshal(body, &mis); err != nil || mis.Primary != owner.addr {
		t.Fatalf("misdirected body: %s (err %v)", body, err)
	}

	// Kill the primary mid-flight and promote the survivor.
	owner.kill()
	resp, body = do(t, "POST", follower.url+"/v1/sessions/"+name+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d: %s", resp.StatusCode, body)
	}
	var pr PromoteResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Role != "primary" || pr.Session != name {
		t.Fatalf("promote response: %+v", pr)
	}

	// The promoted state is byte-for-byte the pre-crash primary state.
	gotDump, gotVios = readState(t, follower.url, name)
	if !bytes.Equal(wantDump, gotDump) {
		t.Fatalf("promoted dump differs:\nwant:\n%s\ngot:\n%s", wantDump, gotDump)
	}
	if wantVios.Total != gotVios.Total {
		t.Fatalf("promoted violations differ: %+v vs %+v", wantVios, gotVios)
	}

	// Promotion is a resumption, not a restart: the write path continues
	// with the next sequence number.
	ar := applyDirty(t, follower.url, name, 99)
	if ar.Seq != lastSeq+1 {
		t.Fatalf("post-promotion seq = %d, want %d", ar.Seq, lastSeq+1)
	}

	// Promote is idempotent.
	resp, _ = do(t, "POST", follower.url+"/v1/sessions/"+name+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-promote: %d", resp.StatusCode)
	}
}

// TestClusterFollowerReadPlane: the PR 7 read plane — paginated
// violations, streamed dumps, SSE — served from a replica, with a
// promotion landing in the middle of a paginated read. The pinned view
// must stay consistent and X-Session-Version monotone across the role
// change.
func TestClusterFollowerReadPlane(t *testing.T) {
	a, b := newClusterPair(t, quorumOpts)
	const name = "reads"
	owner, follower := ownerAndFollower(a, b, name)
	createTiny(t, owner.url, name)
	waitFollower(t, follower, name)
	for i := 0; i < 4; i++ {
		applyDirty(t, owner.url, name, i)
	}

	// Page 1 from the follower.
	resp, body := getBody(t, follower.url+"/v1/sessions/"+name+"/violations?limit=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower violations: %d: %s", resp.StatusCode, body)
	}
	v1, err := strconv.ParseUint(resp.Header.Get("X-Session-Version"), 10, 64)
	if err != nil {
		t.Fatalf("X-Session-Version: %v", err)
	}
	var page1 ViolationsResponse
	if err := json.Unmarshal(body, &page1); err != nil {
		t.Fatal(err)
	}
	if page1.NextCursor == "" && page1.Total > 1 {
		t.Fatalf("page 1 of %d violations has no cursor: %s", page1.Total, body)
	}

	// SSE subscriber on the follower sees replicated batches.
	sseReq, err := http.NewRequest("GET", follower.url+"/v1/sessions/"+name+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	nextEvent := func() (id uint64, ev Event) {
		t.Helper()
		var haveID bool
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatal("SSE stream ended early")
				}
				if strings.HasPrefix(l, "id: ") {
					id, _ = strconv.ParseUint(strings.TrimPrefix(l, "id: "), 10, 64)
					haveID = true
				}
				if strings.HasPrefix(l, "data: ") && haveID {
					if err := json.Unmarshal([]byte(strings.TrimPrefix(l, "data: ")), &ev); err != nil {
						t.Fatal(err)
					}
					return id, ev
				}
			case <-time.After(10 * time.Second):
				t.Fatal("timed out waiting for SSE event")
			}
		}
	}

	applyDirty(t, owner.url, name, 50)
	id1, ev := nextEvent()
	if ev.Session != name {
		t.Fatalf("replicated event: %+v", ev)
	}

	// Promote mid-read (old primary still up: its next ship will be
	// refused with a role conflict and the stream stops — split-brain
	// guard, not tested here).
	resp, body = do(t, "POST", follower.url+"/v1/sessions/"+name+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d: %s", resp.StatusCode, body)
	}

	// Page 2 with the page-1 cursor: the pinned view survives the role
	// change, and the version header never moves backwards.
	if page1.NextCursor != "" {
		resp, body = getBody(t, follower.url+"/v1/sessions/"+name+"/violations?cursor="+page1.NextCursor)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page 2 across promotion: %d: %s", resp.StatusCode, body)
		}
		var page2 ViolationsResponse
		if err := json.Unmarshal(body, &page2); err != nil {
			t.Fatal(err)
		}
		if page2.Version != page1.Version {
			t.Fatalf("cursor view moved across promotion: %d -> %d", page1.Version, page2.Version)
		}
		v2, _ := strconv.ParseUint(resp.Header.Get("X-Session-Version"), 10, 64)
		if v2 < v1 {
			t.Fatalf("X-Session-Version went backwards across promotion: %d -> %d", v1, v2)
		}
	}

	// Streamed dump from the (now primary) replica still runs to the
	// completion trailer.
	dumpResp, err := http.Get(follower.url + "/v1/sessions/" + name + "/dump")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(dumpResp.Body); err != nil {
		t.Fatal(err)
	}
	dumpResp.Body.Close()
	if dumpResp.Trailer.Get("X-Dump-Complete") != "true" {
		t.Fatal("follower dump missing completion trailer")
	}

	// The SSE stream survives the promotion: the next write (now served
	// locally) publishes with a monotonically increasing event id.
	applyDirty(t, follower.url, name, 51)
	id2, _ := nextEvent()
	if id2 <= id1 {
		t.Fatalf("event id not monotone across promotion: %d then %d", id1, id2)
	}
}

// TestClusterProxyKeepsDumpContract: a dump read through a node that
// neither owns nor follows the session keeps the contract of one read
// from the owner. A complete dump arrives with the same bytes and the
// X-Dump-Complete trailer; a dump the owner aborts mid-body reaches the
// client as a failed read, never as a clean end of body.
func TestClusterProxyKeepsDumpContract(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		ns := newCluster(t, quorumOpts, 3)
		const name = "px"
		ring := ns[0].srv.reg.cluster.ring
		var owner, other *clusterNode
		for _, n := range ns {
			switch n.addr {
			case ring.Primary(name):
				owner = n
			case ring.Follower(name): // hosts a replica: serves its own dump
			default:
				other = n
			}
		}
		createRecovery(t, owner.url, name)
		applyRecovery(t, owner.url, name, 1)
		dump := func(n *clusterNode) ([]byte, string) {
			t.Helper()
			resp, err := http.Get(n.url + "/v1/sessions/" + name + "/dump")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("dump from %s: %d, %v", n.addr, resp.StatusCode, err)
			}
			return body, resp.Trailer.Get("X-Dump-Complete")
		}
		want, wantDone := dump(owner)
		got, gotDone := dump(other)
		if wantDone != "true" || gotDone != wantDone || !bytes.Equal(want, got) {
			t.Fatalf("through the proxy: trailer %q, body\n%s\nfrom the owner: trailer %q, body\n%s", gotDone, got, wantDone, want)
		}
	})
	t.Run("aborted", func(t *testing.T) {
		owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Trailer", "X-Dump-Complete")
			io.WriteString(w, "AC,PN,CT,ST,zip\n212,8983490,NYC,NY,10012\n")
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}))
		defer owner.Close()
		proxy := newCluster(t, quorumOpts, 1, owner.Listener.Addr().String())[0]
		name := ""
		for i := 0; name == ""; i++ {
			if n := fmt.Sprintf("s%d", i); proxy.srv.reg.cluster.primary(n) != proxy.addr {
				name = n
			}
		}
		resp, err := http.Get(proxy.url + "/v1/sessions/" + name + "/dump")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil {
			t.Fatalf("a dump the owner aborted read cleanly through the proxy (trailer %q):\n%s", resp.Trailer.Get("X-Dump-Complete"), body)
		}
	})
}

// TestClusterQuotaShipsToFollower: a session's quota is session state —
// it must ride the snapshot to the replica and still govern after
// promotion.
func TestClusterQuotaShipsToFollower(t *testing.T) {
	a, b := newClusterPair(t, quorumOpts)
	const name = "limited"
	owner, follower := ownerAndFollower(a, b, name)

	resp, body := do(t, "POST", owner.url+"/v1/sessions", CreateRequest{
		Name:   name,
		Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}},
		CFDs:   tinyCFDs,
		Quota:  &WireQuota{OpsPerSec: 123, MaxRelationSize: 456},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	waitFollower(t, follower, name)

	resp, body = do(t, "POST", follower.url+"/v1/sessions/"+name+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d: %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, follower.url+"/v1/sessions/"+name)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d: %s", resp.StatusCode, body)
	}
	var si SessionInfo
	if err := json.Unmarshal(body, &si); err != nil {
		t.Fatal(err)
	}
	if si.Quota == nil || si.Quota.OpsPerSec != 123 || si.Quota.MaxRelationSize != 456 {
		t.Fatalf("promoted session lost its quota: %s", body)
	}
}

// TestRefusedBatchShipsNothing: on a clustered primary a batch Check
// refuses ships no frame and no image — the follower's dump and the
// node's snapshot count stay where they were — and the next accepted
// batch chains onto the follower as a plain batch. Under ack=leader one
// FIFO queue carries every frame, so once that batch is counted
// anything queued before it has been sent.
func TestRefusedBatchShipsNothing(t *testing.T) {
	a, b := newClusterPair(t, func(self string, peers []string) Options {
		return Options{QueueDepth: 16, Peers: peers, Self: self, Ack: AckLeader}
	})
	const name = "refusing"
	owner, follower := ownerAndFollower(a, b, name)
	createTiny(t, owner.url, name)
	waitFollower(t, follower, name)
	shipped := func(n float64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if promValue(t, owner.url, "cfdserved_ship_batches_total") >= n {
				return
			}
		}
		t.Fatalf("the follower never acknowledged %g batches", n)
	}
	applyDirty(t, owner.url, name, 0)
	applyDirty(t, owner.url, name, 1)
	shipped(2)
	snaps := promValue(t, owner.url, "cfdserved_ship_snapshots_total")
	before, _ := readState(t, follower.url, name)

	resp, body := do(t, "POST", owner.url+"/v1/sessions/"+name+"/apply", ApplyRequest{Deletes: []int64{99999}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad delete: %d: %s", resp.StatusCode, body)
	}
	if after, _ := readState(t, follower.url, name); !bytes.Equal(before, after) {
		t.Fatalf("the follower changed on a refused batch:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	applyDirty(t, owner.url, name, 2)
	shipped(3)
	if n := promValue(t, owner.url, "cfdserved_ship_snapshots_total"); n != snaps {
		t.Fatalf("cfdserved_ship_snapshots_total %g -> %g: a refused batch shipped an image", snaps, n)
	}
	want, _ := readState(t, owner.url, name)
	if got, _ := readState(t, follower.url, name); !bytes.Equal(want, got) {
		t.Fatalf("follower diverged from its primary\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestClusterBodyTooLarge: a clustered node holds bodies to MaxBodyBytes
// as a single node does (TestBodyTooLarge's cases), creates included:
// a create is routed by the name its body holds, and a body over the limit
// is a 413 whichever node it arrives at and whichever node owns the name.
func TestClusterBodyTooLarge(t *testing.T) {
	const limit = 256
	a, b := newClusterPair(t, func(self string, peers []string) Options {
		o := quorumOpts(self, peers)
		o.MaxBodyBytes = limit
		return o
	})
	owner, follower := ownerAndFollower(a, b, "s")
	createTiny(t, owner.url, "s")
	waitFollower(t, follower, "s")
	sess := owner.url + "/v1/sessions/s"
	cases := []bodyLimitCase{
		{sess + "/apply", []byte(limitApply), http.StatusOK},
		{sess + "/ingest", []byte(limitApply), http.StatusAccepted},
	}
	// Through each node, a create of a name each node owns: two are served
	// where they arrive, two are forwarded.
	i := 0
	ownedBy := func(n *clusterNode) string {
		for ; ; i++ {
			if name := fmt.Sprintf("c%d", i); a.srv.reg.cluster.primary(name) == n.addr {
				i++
				return name
			}
		}
	}
	for _, entry := range []*clusterNode{a, b} {
		for _, owner := range []*clusterNode{a, b} {
			cases = append(cases, bodyLimitCase{entry.url + "/v1/sessions", tinyCreate(ownedBy(owner), ""), http.StatusCreated})
		}
	}
	checkBodyLimit(t, limit, cases)
}

// hostsLocally reports whether n's registry holds name, in any role.
func hostsLocally(n *clusterNode, name string) bool {
	_, err := n.srv.reg.Get(name)
	return err == nil
}

// TestClusterDeleteDropsFollowerCopy: deleting a replicated session on its
// owner drops the follower's copy before the DELETE answers, so the
// follower neither hosts nor serves the deleted rows. A follower that
// cannot be reached costs a degraded delivery, not the delete.
func TestClusterDeleteDropsFollowerCopy(t *testing.T) {
	a, b := newClusterPair(t, quorumOpts)
	const name = "orphan"
	owner, follower := ownerAndFollower(a, b, name)
	createTiny(t, owner.url, name)
	waitFollower(t, follower, name)
	applyDirty(t, owner.url, name, 0)
	if resp, body := do(t, "DELETE", owner.url+"/v1/sessions/"+name, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", resp.StatusCode, body)
	}
	if hostsLocally(follower, name) {
		t.Fatal("the follower still hosts the deleted session")
	}
	if resp, body := getBody(t, follower.url+"/v1/sessions/"+name+"/dump"); resp.StatusCode == http.StatusOK {
		t.Fatalf("the follower still serves the deleted rows:\n%s", body)
	}

	// The same delete with the follower gone: the owner counts the drop
	// it could not deliver and the delete succeeds.
	createTiny(t, owner.url, name)
	waitFollower(t, follower, name)
	follower.kill()
	degraded := owner.srv.reg.ship.Degraded.Load()
	if resp, body := do(t, "DELETE", owner.url+"/v1/sessions/"+name, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete with the follower down: %d: %s", resp.StatusCode, body)
	}
	if got := owner.srv.reg.ship.Degraded.Load(); got <= degraded {
		t.Fatalf("the undelivered drop was not counted: degraded %d → %d", degraded, got)
	}
}

// TestClusterCountersMonotone: a node's counters never go backwards
// when a shipping stream stops with its deleted session. Every _total
// series the owner exported before is at least as large after (a
// deleted session's own series are gone, not lowered); the ship totals
// above all, which rate() would read as a reset.
func TestClusterCountersMonotone(t *testing.T) {
	totals := func(t *testing.T, base string) map[string]float64 {
		t.Helper()
		_, body := do(t, "GET", base+"/metrics", nil)
		out := map[string]float64{}
		for _, s := range parseProm(t, string(body)).samples {
			if strings.HasSuffix(s.name, "_total") {
				out[s.name+"|"+s.labels["session"]] = s.value
			}
		}
		return out
	}
	t.Run("delete", func(t *testing.T) {
		a, b := newClusterPair(t, quorumOpts)
		const name = "counted"
		owner, other := ownerAndFollower(a, b, name)
		createTiny(t, owner.url, name)
		waitFollower(t, other, name)
		for i := 0; i < 3; i++ {
			applyDirty(t, owner.url, name, i)
		}
		before := totals(t, owner.url)
		if n := before["cfdserved_ship_batches_total|"]; n < 3 {
			t.Fatalf("cfdserved_ship_batches_total = %g after 3 quorum applies, want >= 3", n)
		}
		if resp, body := do(t, "DELETE", owner.url+"/v1/sessions/"+name, nil); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete: %d: %s", resp.StatusCode, body)
		}
		after := totals(t, owner.url)
		for k, v := range before {
			if now, ok := after[k]; (ok || !strings.Contains(k, "_session_")) && now < v {
				t.Errorf("%s went backwards: %g -> %g", k, v, now)
			}
		}
	})
}

// TestClusterFollowerRestartStaysFollower: the split-brain regression.
// A node hosting replicas goes down and comes back — the most ordinary
// cluster event there is — and must re-host them as FOLLOWERS: the
// durable role marker survives the restart, writes stay fenced with
// 421, the read plane serves the recovered replica, and the primary's
// shipping stream resumes instead of hitting a phantom primary and
// stopping. Promotion then clears the durable role.
func TestClusterFollowerRestartStaysFollower(t *testing.T) {
	dirs := map[string]string{}
	durable := func(self string, peers []string) Options {
		d, ok := dirs[self]
		if !ok {
			d = t.TempDir()
			dirs[self] = d
		}
		return Options{QueueDepth: 16, Peers: peers, Self: self, Ack: AckQuorum, DataDir: d}
	}
	a, b := newClusterPair(t, durable)
	const name = "restarted"
	owner, follower := ownerAndFollower(a, b, name)
	createTiny(t, owner.url, name)
	waitFollower(t, follower, name)
	for i := 0; i < 3; i++ {
		applyDirty(t, owner.url, name, i)
	}
	wantDump, wantVios := readState(t, owner.url, name)

	if !readRoleMarker(filepath.Join(dirs[follower.addr], name)) {
		t.Fatal("replica session directory carries no follower marker")
	}
	if readRoleMarker(filepath.Join(dirs[owner.addr], name)) {
		t.Fatal("primary session directory carries a follower marker")
	}

	s2 := follower.restart(t, durable(follower.addr, []string{a.addr, b.addr}))

	h, err := s2.reg.Get(name)
	if err != nil {
		t.Fatalf("recovered node lost the session: %v", err)
	}
	if h.roleString() != "follower" {
		t.Fatalf("recovered role = %s, want follower", h.roleString())
	}

	// Writes are still fenced toward the true primary.
	resp, body := do(t, "POST", follower.url+"/v1/sessions/"+name+"/apply", ApplyRequest{
		Inserts: []WireTuple{{Vals: []*string{strp("212"), strp("NYC")}}},
	})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("restarted follower write: %d (want 421): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Primary"); got != owner.addr {
		t.Fatalf("X-Primary = %q, want %q", got, owner.addr)
	}

	// The read plane serves the recovered replica byte-identically.
	gotDump, gotVios := readState(t, follower.url, name)
	if !bytes.Equal(wantDump, gotDump) {
		t.Fatalf("recovered replica dump differs:\nwant:\n%s\ngot:\n%s", wantDump, gotDump)
	}
	if wantVios.Total != gotVios.Total {
		t.Fatalf("recovered replica violations differ: %+v vs %+v", wantVios, gotVios)
	}

	// The primary's shipping stream resumes: a post-restart quorum write
	// reaches the restarted replica (healing by resync if need be).
	applyDirty(t, owner.url, name, 9)
	wantDump, wantVios = readState(t, owner.url, name)
	deadline := time.Now().Add(10 * time.Second)
	for {
		gotDump, gotVios = readState(t, follower.url, name)
		if bytes.Equal(wantDump, gotDump) && wantVios.Total == gotVios.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted follower never caught up:\nwant:\n%s\ngot:\n%s", wantDump, gotDump)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Promotion flips the durable role with the live one.
	resp, body = do(t, "POST", follower.url+"/v1/sessions/"+name+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d: %s", resp.StatusCode, body)
	}
	if readRoleMarker(filepath.Join(dirs[follower.addr], name)) {
		t.Fatal("promotion left the durable follower marker in place")
	}
}

// TestClusterSurvivorRestartsSingleNode: the failover runbook's last
// step. The owner of two sessions is lost, one is promoted on the
// survivor, and the survivor is restarted without peers on its own data
// directory. Both sessions must come back as primaries — the promoted
// one by its cleared marker, the follower copy because a node without
// peers ignores the marker and clears it — with the bytes they held
// before the restart, and take writes; a new name is created locally.
func TestClusterSurvivorRestartsSingleNode(t *testing.T) {
	dirs := map[string]string{}
	durable := func(self string, peers []string) Options {
		if dirs[self] == "" {
			dirs[self] = t.TempDir()
		}
		return Options{QueueDepth: 16, Peers: peers, Self: self, Ack: AckQuorum, DataDir: dirs[self]}
	}
	a, b := newClusterPair(t, durable)
	const x = "x"
	owner, survivor := ownerAndFollower(a, b, x)
	// y: a second name the ring gives the same owner, so the survivor
	// holds it as a follower through the restart.
	y := ""
	for i := 0; y == ""; i++ {
		if n := fmt.Sprintf("y%d", i); owner.srv.reg.cluster.primary(n) == owner.addr {
			y = n
		}
	}
	for _, name := range []string{x, y} {
		createTiny(t, owner.url, name)
		waitFollower(t, survivor, name)
		for i := 0; i < 3; i++ {
			applyDirty(t, owner.url, name, i)
		}
	}

	// Membership is the boot-time list: no route changes it.
	if resp, body := do(t, "PUT", survivor.url+"/v1/cluster/peers", map[string][]string{"peers": {survivor.addr}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PUT /v1/cluster/peers: %d (want 404): %s", resp.StatusCode, body)
	}

	owner.kill()
	if resp, body := do(t, "POST", survivor.url+"/v1/sessions/"+x+"/promote", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d: %s", resp.StatusCode, body)
	}
	want := map[string][]byte{}
	for _, name := range []string{x, y} {
		want[name], _ = readState(t, survivor.url, name)
	}

	s2 := survivor.restart(t, Options{QueueDepth: 16, DataDir: dirs[survivor.addr]})
	for i, name := range []string{x, y} {
		h, err := s2.reg.Get(name)
		if err != nil {
			t.Fatalf("the restarted survivor lost %s: %v", name, err)
		}
		if h.role.Load() != rolePrimary {
			t.Fatalf("%s recovered as %s, want primary", name, h.roleString())
		}
		if readRoleMarker(filepath.Join(dirs[survivor.addr], name)) {
			t.Fatalf("%s still carries the follower marker", name)
		}
		if got, _ := readState(t, survivor.url, name); !bytes.Equal(got, want[name]) {
			t.Fatalf("%s dump moved across the restart:\nwant:\n%s\ngot:\n%s", name, want[name], got)
		}
		if ar := applyDirty(t, survivor.url, name, 10+i); len(ar.Inserted) != 2 {
			t.Fatalf("%s write after the restart inserted %d tuples, want 2", name, len(ar.Inserted))
		}
		if got, _ := readState(t, survivor.url, name); bytes.Count(got, []byte("\n")) != bytes.Count(want[name], []byte("\n"))+2 {
			t.Fatalf("%s write after the restart is not in the dump:\n%s", name, got)
		}
	}
	createTiny(t, survivor.url, "fresh")
	if !hostsLocally(survivor, "fresh") {
		t.Fatal("a create on the restarted survivor was not served locally")
	}
}

// TestClusterDiskFollower: the follower runs the primary's write path —
// its own worker replays every shipped batch and its own committer logs,
// rotates and publishes it — so a durable follower must do everything
// a durable primary does while following: rotate page-store
// generations, restart still a follower from a slim snapshot, and after
// the primary is killed be promoted into a session whose dump, violations
// and stats are byte-identical to the primary's at the same version, with
// the SSE seq continuing across the promotion.
func TestClusterDiskFollower(t *testing.T) {
	dirs := map[string]string{}
	diskOpts := func(self string, peers []string) Options {
		if dirs[self] == "" {
			dirs[self] = t.TempDir()
		}
		return Options{QueueDepth: 16, Peers: peers, Self: self, Ack: AckQuorum,
			DataDir: dirs[self], SnapshotEvery: 2, Fsync: FsyncOff}
	}
	a, b := newClusterPair(t, diskOpts)
	const name = "spilled"
	owner, follower := ownerAndFollower(a, b, name)
	createTiny(t, owner.url, name)
	waitFollower(t, follower, name)

	// Five replicated batches at SnapshotEvery=2: the follower, like the
	// primary, anchors generations 1 and 2 — while following.
	for i := 0; i < 5; i++ {
		applyDirty(t, owner.url, name, i)
	}
	for _, n := range []*clusterNode{owner, follower} {
		requireAnchored(t, filepath.Join(dirs[n.addr], name), 2)
	}

	// Both metrics endpoints report the replication counters.
	_, body := getBody(t, owner.url+"/metrics")
	if v := parseProm(t, string(body)).get(t, "cfdserved_ship_batches_total").value; v < 5 {
		t.Fatalf("primary ship_batches_total = %g, want >= 5", v)
	}
	_, body = getBody(t, follower.url+"/metrics")
	if v := parseProm(t, string(body)).get(t, "cfdserved_replica_applied_total").value; v != 5 {
		t.Fatalf("follower replica_applied_total = %g, want 5", v)
	}

	// Restart the follower: it comes back a follower from the slim
	// snapshot and the page store, and keeps following.
	s2 := follower.restart(t, diskOpts(follower.addr, []string{a.addr, b.addr}))
	h, err := s2.reg.Get(name)
	if err != nil {
		t.Fatalf("restarted node lost the session: %v", err)
	}
	if h.roleString() != "follower" || h.pers.storeStats() == nil {
		t.Fatalf("restarted as %s, store %v; want a follower with a page store", h.roleString(), h.pers.storeStats())
	}
	events, closeSSE := openSSE(t, follower.url+"/v1/sessions/"+name+"/events", "")
	defer closeSSE()
	applyDirty(t, owner.url, name, 5)
	applyDirty(t, owner.url, name, 6)
	lastSeq := collectSSE(t, events, 2)[1].ev.Seq

	// Same version, same bytes — under quorum ack every reply means the
	// follower has committed the batch.
	wantDump, wantSnap, wantVios := sessionState(t, owner.url, name)
	gotDump, gotSnap, gotVios := sessionState(t, follower.url, name)
	if !bytes.Equal(wantDump, gotDump) || wantSnap != gotSnap || wantVios != gotVios {
		t.Fatalf("disk follower diverged from its primary\nprimary:\n%s%+v\nfollower:\n%s%+v", wantDump, wantSnap, gotDump, gotSnap)
	}

	owner.kill()
	resp, body := do(t, "POST", follower.url+"/v1/sessions/"+name+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d: %s", resp.StatusCode, body)
	}
	gotDump, gotSnap, gotVios = sessionState(t, follower.url, name)
	if !bytes.Equal(wantDump, gotDump) || wantSnap != gotSnap || wantVios != gotVios {
		t.Fatalf("promoted disk follower diverged\nwant:\n%s%+v\ngot:\n%s%+v", wantDump, wantSnap, gotDump, gotSnap)
	}

	// The promoted session takes writes, and its event stream continues
	// where the replicated one stopped.
	ar := applyDirty(t, follower.url, name, 7)
	if ev := collectSSE(t, events, 1)[0].ev; ev.Seq != lastSeq+1 || ar.Seq != ev.Seq {
		t.Fatalf("seq after promotion: event %d, reply %d, want %d", ev.Seq, ar.Seq, lastSeq+1)
	}
}

// TestReplicaRefusesUnsafeNames: the replication endpoints take the
// session name from a path segment the mux matches unescaped, so
// PUT /v1/replica/%2e%2e names "..". Every name a create would refuse
// must be refused there too — 400, before a session directory is made
// or removed — and a node without peers serves no replication at all.
// An image that names another session than the URL is a 400 too, not
// the 409 that would make the shipper resync with the same image.
func TestReplicaRefusesUnsafeNames(t *testing.T) {
	snap, err := newTinyHosted(t, NewRegistry(1), 1).sess.PersistSnapshot("tiny")
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := wal.WriteSnapshot(&stream, snap); err != nil {
		t.Fatal(err)
	}
	names := []string{"%2e%2e", "..%2Fx", "a%2Fb", ".hidden", "a%5Cb", "a:b", strings.Repeat("n", 129)}

	for _, clustered := range []bool{true, false} {
		outer := t.TempDir()
		dataDir := filepath.Join(outer, "data")
		sentinel := filepath.Join(outer, "sentinel")
		if err := os.Mkdir(dataDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sentinel, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{DataDir: dataDir, Fsync: FsyncOff}
		if clustered {
			opts.Peers, opts.Self = []string{"127.0.0.1:1", "127.0.0.1:2"}, "127.0.0.1:1"
		}
		s, ts := newTestService(t, opts)
		requireUntouched := func(what string) {
			t.Helper()
			if b, err := os.ReadFile(sentinel); err != nil || string(b) != "keep" {
				t.Fatalf("clustered=%v %s: sentinel beside the data dir: %q, %v", clustered, what, b, err)
			}
			beside, _ := os.ReadDir(outer)
			inside, _ := os.ReadDir(dataDir)
			if len(beside) != 2 || len(inside) != 0 {
				t.Fatalf("clustered=%v %s: beside the data dir %v, inside it %v", clustered, what, beside, inside)
			}
		}
		put := func(name string) string {
			t.Helper()
			resp, body := putReplica(t, ts.URL, name, stream.Bytes())
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("clustered=%v PUT /v1/replica/%s: %d %s, want 400", clustered, name, resp.StatusCode, body)
			}
			requireUntouched("PUT /v1/replica/" + name)
			return string(body)
		}
		for _, name := range names {
			put(name)
		}
		if body := put("other"); clustered && !strings.Contains(body, `names \"tiny\"`) {
			t.Errorf("PUT /v1/replica/other of an image of tiny: %s, want the name refused", body)
		}
		dotdot := *snap
		dotdot.Name = ".."
		var img bytes.Buffer
		if err := wal.WriteSnapshot(&img, &dotdot); err != nil {
			t.Fatal(err)
		}
		if err := s.reg.InstallReplica(context.Background(), "..", &img); err == nil || errors.Is(err, errReplicaImage) {
			t.Errorf("clustered=%v: InstallReplica(\"..\") in-process: %v, want the unsafe name refused", clustered, err)
		}
		requireUntouched(`InstallReplica("..")`)
	}
}

// putReplica sends body to PUT /v1/replica/{name}.
func putReplica(t *testing.T, base, name string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("PUT", base+"/v1/replica/"+name, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

// TestClusterBootstrapsFromSnapshotStream: a follower is bootstrapped
// over loopback HTTP from the snapshot file's own stream — for 4 100
// tuples, a header record and two chunk records — and serves the
// primary's dump byte for byte. PUT /v1/replica/{name} restores the rows
// as they arrive, and an image it cannot take installs nothing and is
// never answered 409 (the shipper would reship it forever): a version
// byte of another build, a body cut inside a chunk record, a header
// naming another session and a page-store header are 400s — the last
// two with garbage rows behind them, since the header is refused before
// any row is read — a body over the install bound a 413, and a name the
// node holds as a primary a 421, also before any row. A second
// session's install completes while the first one's body is held.
func TestClusterBootstrapsFromSnapshotStream(t *testing.T) {
	a, b := newClusterPair(t, quorumOpts)
	const name = "big"
	owner, follower := ownerAndFollower(a, b, name)
	cr := CreateRequest{Name: name, Schema: &WireSchema{Name: "orders", Attrs: []string{"AC", "CT"}}, CFDs: tinyCFDs}
	for i := 0; i < 4100; i++ {
		cr.Base = append(cr.Base, WireTuple{Vals: []*string{strp(strconv.Itoa(1000 + i)), strp("C" + strconv.Itoa(i))}})
	}
	if resp, body := do(t, "POST", owner.url+"/v1/sessions", cr); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d: %s", resp.StatusCode, body)
	}
	waitFollower(t, follower, name)
	wantDump, wantSnap, wantVios := sessionState(t, owner.url, name)
	gotDump, gotSnap, gotVios := sessionState(t, follower.url, name)
	if !bytes.Equal(wantDump, gotDump) || wantSnap != gotSnap || wantVios != gotVios {
		t.Fatalf("bootstrapped follower differs from its primary\nwant %+v\ngot  %+v", wantSnap, gotSnap)
	}
	if n := bytes.Count(gotDump, []byte("\n")); n != 4101 {
		t.Fatalf("follower dump has %d lines, want 4101", n)
	}

	h, err := owner.srv.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := h.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	image := func(name string, storeKind byte) []byte {
		t.Helper()
		c := *snap
		c.Name, c.StoreKind = name, storeKind
		var b bytes.Buffer
		if err := wal.WriteSnapshot(&b, &c); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	good := image("fresh", 0)
	rest := bytes.NewReader(good[len("CFDSNAP")+1:])
	if _, err := wal.ReadFrame(rest, len(good)); err != nil {
		t.Fatal(err)
	}
	header := len(good) - rest.Len() // where the header record ends
	garbageRows := func(img []byte) []byte {
		return append(img[:header:header], bytes.Repeat([]byte{0xa5}, 5000)...)
	}
	otherVersion := append([]byte(nil), good...)
	otherVersion[len("CFDSNAP")] = wal.Version + 1
	// A front that holds PUT bodies to a bound of half the image, in
	// front of the follower's own handler: past it, the install answers
	// 413 (shown without sending 256 MiB).
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		req.Body = http.MaxBytesReader(w, req.Body, int64(len(good)/2))
		follower.srv.Handler().ServeHTTP(w, req)
	}))
	defer short.Close()
	for _, c := range []struct {
		what, base, name string
		body             []byte
		status           int
		want             string
	}{
		{"another version", follower.url, "fresh", otherVersion, http.StatusBadRequest, fmt.Sprintf("format version %d", wal.Version+1)},
		{"cut inside a chunk", follower.url, "fresh", good[:len(good)/2], http.StatusBadRequest, "record torn"},
		{"over the install bound", short.URL, "fresh", good, http.StatusRequestEntityTooLarge, "request body too large"},
		{"naming another session", follower.url, "fresh", garbageRows(image("other", 0)), http.StatusBadRequest, `names \"other\"`},
		{"a page-store header", follower.url, "fresh", garbageRows(image("fresh", wal.StorePaged)), http.StatusBadRequest, "store kind 1"},
		{"a page-store header, rows intact", follower.url, "fresh", image("fresh", wal.StorePaged), http.StatusBadRequest, "store kind 1"},
		{"a primary's name", owner.url, name, garbageRows(image(name, 0)), http.StatusMisdirectedRequest, "primary"},
	} {
		resp, body := putReplica(t, c.base, c.name, c.body)
		if resp.StatusCode != c.status || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: %d %s, want %d naming %q", c.what, resp.StatusCode, body, c.status, c.want)
		}
		if _, err := follower.srv.reg.Get("fresh"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: installed a replica (%v)", c.what, err)
		}
		if h, err := owner.srv.reg.Get(name); err != nil || h.role.Load() != rolePrimary {
			t.Fatalf("%s: the owner no longer hosts %s as its primary (%v)", c.what, name, err)
		}
	}

	// One install's body is held inside its first chunk, so its restore
	// is under way; another session's install completes meanwhile, and
	// then the first one does too.
	reached, release := make(chan struct{}), make(chan struct{})
	gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		gate := &gateReader{r: req.Body, left: (header + len(good)) / 2, reached: reached, release: release}
		req.Body = struct {
			io.Reader
			io.Closer
		}{gate, req.Body}
		follower.srv.Handler().ServeHTTP(w, req)
	}))
	defer gated.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before gated.Close, which waits for the held request
	done := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(mustRequest("PUT", gated.URL+"/v1/replica/fresh", good))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the held install never read past the middle of its body")
	}
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(mustRequest("PUT", follower.url+"/v1/replica/second", image("second", 0)))
	if err != nil {
		t.Fatalf("install beside a held body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("install beside a held body: %d", resp.StatusCode)
	}
	select {
	case status := <-done:
		t.Fatalf("the held install ended (%d) before its body did", status)
	default:
	}
	unblock()
	if status := <-done; status != http.StatusNoContent {
		t.Fatalf("the held install, once its body arrived: %d", status)
	}
	for _, n := range []string{"fresh", "second"} {
		if h, err := follower.srv.reg.Get(n); err != nil || h.role.Load() != roleFollower {
			t.Fatalf("%s is not hosted as a follower (%v)", n, err)
		}
	}
}

// gateReader passes the first left bytes of r; the read that would go
// past them closes reached and waits for release.
type gateReader struct {
	r                io.Reader
	left             int
	reached, release chan struct{}
}

func (g *gateReader) Read(p []byte) (int, error) {
	if g.left == 0 {
		if g.reached != nil {
			close(g.reached)
			g.reached = nil
			<-g.release
		}
		return g.r.Read(p)
	}
	n, err := g.r.Read(p[:min(len(p), g.left)])
	g.left -= n
	return n, err
}

func mustRequest(method, url string, body []byte) *http.Request {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	return req
}
