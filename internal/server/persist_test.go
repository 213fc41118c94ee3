package server

// Server-level crash-recovery tests: a durable service is driven over
// HTTP, stopped (gracefully or by simulated crash artifacts: torn and
// corrupted WAL tails), and rebooted onto the same data dir; the
// recovered sessions must answer with byte-identical dumps, snapshots
// and violation listings, keep accepting traffic, and keep persisting.
// The generation machinery (snapshot rotation, pruning, fallback to the
// previous generation) is exercised with a small SnapshotEvery.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

const recoveryCFDs = `cfd phi1: [AC] -> [CT, ST]
(212 || NYC, NY)
(610 || PHI, PA)
cfd fd1: [zip] -> [CT]
(_ || _)
`

const recoveryBase = `AC,PN,CT,ST,zip
212,8983490,NYC,NY,10012
212,3456789,NYC,NY,10012
610,3345677,PHI,PA,19014
312,7654321,CHI,IL,60614
`

func createRecovery(t *testing.T, base, name string) {
	t.Helper()
	resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
		Name:    name,
		CFDs:    recoveryCFDs,
		BaseCSV: recoveryBase,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: %d: %s", name, resp.StatusCode, body)
	}
}

// applyRecovery sends one insert batch parameterized by i so every
// batch is distinct; odd batches violate phi1 and get repaired.
func applyRecovery(t *testing.T, base, name string, i int) {
	t.Helper()
	ct, st := "NYC", "NY"
	if i%2 == 1 {
		ct, st = "PHI", "PA" // violates phi1's 212 row
	}
	resp, body := do(t, "POST", base+"/v1/sessions/"+name+"/apply", ApplyRequest{
		Inserts: []WireTuple{
			{Vals: []*string{strp("212"), strp(fmt.Sprintf("555%04d", i)), strp(ct), strp(st), strp("10012")}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply %s #%d: %d: %s", name, i, resp.StatusCode, body)
	}
}

// sessionState fetches the comparable state of one session: CSV dump
// bytes, published snapshot, violation listing.
func sessionState(t *testing.T, base, name string) (dump []byte, snap WireSnapshot, vios string) {
	t.Helper()
	resp, body := do(t, "GET", base+"/v1/sessions/"+name+"/dump", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump %s: %d: %s", name, resp.StatusCode, body)
	}
	dump = body
	resp, body = do(t, "GET", base+"/v1/sessions/"+name, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: %d: %s", name, resp.StatusCode, body)
	}
	var info SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "GET", base+"/v1/sessions/"+name+"/violations", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("violations %s: %d: %s", name, resp.StatusCode, body)
	}
	return dump, info.Snapshot, string(body)
}

func shutdownService(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
}

// TestServerRecoveryRoundTrip: multi-tenant durable service, mixed
// apply/ingest traffic across snapshot rotations, graceful stop, boot a
// fresh server on the same dir — every session must come back
// byte-identical, stay durable, and keep serving.
func TestServerRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: FsyncOff, SnapshotEvery: 3, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	base1 := ts1.URL

	names := []string{"tenant-a", "tenant-b"}
	for _, n := range names {
		createRecovery(t, base1, n)
	}
	for i := 0; i < 7; i++ { // crosses the SnapshotEvery=3 rotation twice
		for _, n := range names {
			applyRecovery(t, base1, n, i)
		}
	}
	// One async ingest on tenant-a; wait until its pass lands.
	resp, body := do(t, "POST", base1+"/v1/sessions/tenant-a/ingest", ApplyRequest{
		Inserts: []WireTuple{{Vals: []*string{strp("610"), strp("7770001"), strp("NYC"), strp("NY"), strp("19014")}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, snap, _ := sessionState(t, base1, "tenant-a")
		if snap.Batches >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ingested batch never applied")
		}
		time.Sleep(10 * time.Millisecond)
	}

	type state struct {
		dump []byte
		snap WireSnapshot
		vios string
	}
	want := map[string]state{}
	for _, n := range names {
		d, sn, v := sessionState(t, base1, n)
		want[n] = state{d, sn, v}
		if !sn.Satisfied {
			t.Fatalf("%s not satisfied before shutdown: %+v", n, sn)
		}
	}
	shutdownService(t, s1, ts1)

	// Rotation must have pruned old generations: at most 2 manifest
	// generations (current + fallback) per session remain.
	for _, n := range names {
		gens, err := genFiles(filepath.Join(dir, n, storeDirName), "manifest")
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) == 0 || len(gens) > 2 {
			t.Fatalf("%s: manifest generations %v on disk", n, gens)
		}
	}

	s2, ts2 := newTestService(t, opts)
	n, err := s2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != len(names) {
		t.Fatalf("recovered %d sessions, want %d", n, len(names))
	}
	base2 := ts2.URL
	for _, name := range names {
		d, sn, v := sessionState(t, base2, name)
		if !bytes.Equal(d, want[name].dump) {
			t.Fatalf("%s: dump diverged after recovery\nwant:\n%s\ngot:\n%s", name, want[name].dump, d)
		}
		if sn != want[name].snap {
			t.Fatalf("%s: snapshot diverged\nwant %+v\ngot  %+v", name, want[name].snap, sn)
		}
		if v != want[name].vios {
			t.Fatalf("%s: violations diverged: %s vs %s", name, want[name].vios, v)
		}
	}

	// The recovered service keeps working and keeps persisting: apply
	// another batch, bounce again, and expect it to survive.
	applyRecovery(t, base2, "tenant-a", 100)
	d100, _, _ := sessionState(t, base2, "tenant-a")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts2.Close()

	s3, ts3 := newTestService(t, opts)
	if n, err := s3.Recover(); err != nil || n != 2 {
		t.Fatalf("second recovery: n=%d err=%v", n, err)
	}
	d3, _, _ := sessionState(t, ts3.URL, "tenant-a")
	if !bytes.Equal(d3, d100) {
		t.Fatal("batch applied after first recovery did not survive the second")
	}
}

// TestServerRecoveryCorruptTail: damage the durable log's tail after a
// stop — trailing garbage and a bit-flipped final record — and require
// the reboot to come back at the last intact batch, then re-anchor
// itself (fresh generation) so persistence continues.
func TestServerRecoveryCorruptTail(t *testing.T) {
	dir := t.TempDir()
	// Huge SnapshotEvery: all batches stay in wal gen 0, so tail damage
	// lands on real batch records.
	opts := Options{DataDir: dir, Fsync: FsyncOff, SnapshotEvery: 1 << 20, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, "t")
	var perBatch [][]byte
	for i := 0; i < 5; i++ {
		applyRecovery(t, ts1.URL, "t", i)
		d, _, _ := sessionState(t, ts1.URL, "t")
		perBatch = append(perBatch, d)
	}
	shutdownService(t, s1, ts1)

	// The stopped server's directory is the pristine state; every
	// corruption case runs against its own copy (page store included) so
	// post-recovery writes cannot leak between cases.
	for _, tc := range []struct {
		name      string
		mutate    func([]byte) []byte
		wantBatch int // index into perBatch the recovery must land on
	}{
		{"trailing-garbage", func(b []byte) []byte {
			return append(append([]byte(nil), b...), "torn half-written rec"...)
		}, 4},
		{"flipped-tail-record", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-3] ^= 0x11
			return c
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caseDir := t.TempDir()
			if err := os.CopyFS(caseDir, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			walFile := walPath(filepath.Join(caseDir, "t"), 0)
			b, err := os.ReadFile(walFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walFile, tc.mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
			caseOpts := opts
			caseOpts.DataDir = caseDir
			s2, ts2 := newTestService(t, caseOpts)
			if n, err := s2.Recover(); err != nil || n != 1 {
				t.Fatalf("recover: n=%d err=%v", n, err)
			}
			d, snap, _ := sessionState(t, ts2.URL, "t")
			if !bytes.Equal(d, perBatch[tc.wantBatch]) {
				t.Fatalf("recovered dump is not the last intact batch's\nwant:\n%s\ngot:\n%s", perBatch[tc.wantBatch], d)
			}
			if !snap.Satisfied {
				t.Fatalf("recovered session unsatisfied: %+v", snap)
			}
			// Still serving and persisting after damage.
			applyRecovery(t, ts2.URL, "t", 7)
			_, body := do(t, "GET", ts2.URL+"/v1/sessions", nil)
			if !strings.Contains(string(body), `"persist":"ok"`) {
				t.Fatalf("session not persisting after tail recovery: %s", body)
			}
		})
	}
}

// TestServerRecoveryReportsMidLogGap: splicing a record out of the
// middle of the WAL leaves structurally valid frames whose version
// chain has a hole. Recovery must stop at the record before the hole,
// discard the acknowledged records after it, come back serving — and
// crucially REPORT the loss through Recover's error, not swallow it.
func TestServerRecoveryReportsMidLogGap(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: FsyncOff, SnapshotEvery: 1 << 20, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, "t")
	var perBatch [][]byte
	for i := 0; i < 4; i++ {
		applyRecovery(t, ts1.URL, "t", i)
		d, _, _ := sessionState(t, ts1.URL, "t")
		perBatch = append(perBatch, d)
	}
	shutdownService(t, s1, ts1)

	walFile := filepath.Join(dir, "t", "wal-0000000000.log")
	b, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	// Frame layout: 7-byte header, then [len u32][crc u32][payload].
	offsets := []int{7}
	for pos := 7; pos < len(b); {
		ln := int(uint32(b[pos]) | uint32(b[pos+1])<<8 | uint32(b[pos+2])<<16 | uint32(b[pos+3])<<24)
		pos += 8 + ln
		offsets = append(offsets, pos)
	}
	if len(offsets) != 5 {
		t.Fatalf("expected 4 records, found %d", len(offsets)-1)
	}
	// Splice out record 1 (the second batch): frames stay valid, the
	// version chain breaks between records 0 and 2.
	spliced := append(append([]byte(nil), b[:offsets[1]]...), b[offsets[2]:]...)
	if err := os.WriteFile(walFile, spliced, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestService(t, opts)
	n, err := s2.Recover()
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if err == nil || !strings.Contains(err.Error(), "does not replay") {
		t.Fatalf("mid-log gap went unreported: %v", err)
	}
	d, snap, _ := sessionState(t, ts2.URL, "t")
	if !bytes.Equal(d, perBatch[0]) {
		t.Fatalf("recovery should stop before the hole\nwant:\n%s\ngot:\n%s", perBatch[0], d)
	}
	if !snap.Satisfied || snap.Batches != 1 {
		t.Fatalf("recovered snapshot: %+v", snap)
	}
	// Re-anchored on a fresh generation and still persisting.
	applyRecovery(t, ts2.URL, "t", 9)
	_, body := do(t, "GET", ts2.URL+"/v1/sessions", nil)
	if !strings.Contains(string(body), `"persist":"ok"`) {
		t.Fatalf("session not persisting after gap recovery: %s", body)
	}
}

// TestServerRemoveDeletesDurableState: DELETE must not resurrect on the
// next boot; Drain must.
func TestServerRemoveDeletesDurableState(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: FsyncBatch, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, "keep")
	createRecovery(t, ts1.URL, "drop")
	applyRecovery(t, ts1.URL, "keep", 1)
	applyRecovery(t, ts1.URL, "drop", 1)
	if resp, body := do(t, "DELETE", ts1.URL+"/v1/sessions/drop", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "drop")); !os.IsNotExist(err) {
		t.Fatalf("deleted session's data dir still exists: %v", err)
	}
	shutdownService(t, s1, ts1)

	s2, ts2 := newTestService(t, opts)
	if n, err := s2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	if resp, _ := do(t, "GET", ts2.URL+"/v1/sessions/keep", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("kept session missing after reboot")
	}
	if resp, _ := do(t, "GET", ts2.URL+"/v1/sessions/drop", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatal("deleted session resurrected")
	}
}

// TestServerRecoverySkipsCorruptTenant: one tenant's files are beyond
// repair; the others must still come up, and the error must say so. A
// manifest's record must end its file: one trailed by a byte is refused
// like a destroyed manifest.
func TestServerRecoverySkipsCorruptTenant(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: FsyncOff, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, "healthy")
	applyRecovery(t, ts1.URL, "healthy", 1)
	createRecovery(t, ts1.URL, "trailed")
	shutdownService(t, s1, ts1)
	trailed, err := os.OpenFile(filepath.Join(dir, "trailed", storeDirName, "manifest-0000000000.mft"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trailed.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	trailed.Close()

	// A tenant directory with a destroyed manifest and one with no
	// generation at all.
	badDir := filepath.Join(dir, "broken")
	if err := os.MkdirAll(filepath.Join(badDir, storeDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badDir, storeDirName, "manifest-0000000000.mft"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	emptyDir := filepath.Join(dir, "empty")
	if err := os.MkdirAll(emptyDir, 0o755); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestService(t, opts)
	n, err := s2.Recover()
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if err == nil || !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "empty") ||
		!strings.Contains(err.Error(), "trailed: no usable generation") {
		t.Fatalf("recovery error does not name the corrupt tenants: %v", err)
	}
	if resp, _ := do(t, "GET", ts2.URL+"/v1/sessions/healthy", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("healthy session missing")
	}
	// The corrupt tenant's name is free to claim; creating it replaces
	// the stale files.
	createRecovery(t, ts2.URL, "broken")
	if _, err := os.Stat(filepath.Join(badDir, "wal-0000000000.log")); err != nil {
		t.Fatalf("recreated tenant has no fresh wal: %v", err)
	}
}

// TestServerFsyncPolicies drives a batch through each policy and checks
// the flag parser.
func TestServerFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncBatch, FsyncOff} {
		dir := t.TempDir()
		s1 := New(Options{DataDir: dir, Fsync: pol, QueueDepth: 4})
		ts1 := httptest.NewServer(s1.Handler())
		createRecovery(t, ts1.URL, "p")
		applyRecovery(t, ts1.URL, "p", 1)
		want, _, _ := sessionState(t, ts1.URL, "p")
		shutdownService(t, s1, ts1)

		s2, ts2 := newTestService(t, Options{DataDir: dir, Fsync: pol, QueueDepth: 4})
		if n, err := s2.Recover(); err != nil || n != 1 {
			t.Fatalf("%v: recover: n=%d err=%v", pol, n, err)
		}
		got, _, _ := sessionState(t, ts2.URL, "p")
		if !bytes.Equal(want, got) {
			t.Fatalf("%v: dump diverged", pol)
		}
	}

	for in, want := range map[string]FsyncPolicy{"batch": FsyncBatch, "off": FsyncOff} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() != in {
			t.Fatalf("FsyncPolicy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestDottedSessionNameRejected: names that could escape or collide in
// the data dir are refused at the wire.
func TestDottedSessionNameRejected(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for _, name := range []string{".", "..", ".hidden"} {
		resp, _ := do(t, "POST", ts.URL+"/v1/sessions", CreateRequest{
			Name: name, CFDs: tinyCFDs,
			Schema: &WireSchema{Name: "o", Attrs: []string{"AC", "CT"}},
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("name %q: status %d", name, resp.StatusCode)
		}
	}
}

// newRecoverySession builds a session over the recovery fixture, closed
// when the test ends.
func newRecoverySession(t *testing.T) *increpair.Session {
	t.Helper()
	rel, err := relation.ReadCSV("d", strings.NewReader(recoveryBase))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := cfd.Parse(rel.Schema(), strings.NewReader(recoveryCFDs))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := increpair.NewSession(rel, cfd.NormalizeAll(parsed), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

// TestFinishPersistSupersededKeepsData: the exiting worker of a removed
// session deletes its directory, directly and through Remove. (A session
// superseded under its name while its worker drains can no longer arise:
// the name is freed by that worker, after the deletion; see
// TestRemoveHoldsNameUntilWorkerExits.)
func TestFinishPersistSupersededKeepsData(t *testing.T) {
	reg := NewRegistry(4)
	reg.persist = &Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 64}
	dataDir := filepath.Join(reg.persist.DataDir, "x")

	s1 := newRecoverySession(t)
	p1, err := newPersister(reg.persist, "x", s1, wal.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	h1 := &hosted{name: "x", sess: s1, pers: p1, purge: true}
	h1.finishPersist(reg)
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("purge left the directory: %v", err)
	}

	s2 := newRecoverySession(t)
	if _, err := reg.Create("x", s2, s2.Current().Schema(), wal.Quota{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Remove(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("Remove left the directory: %v", err)
	}
}

// TestRemoveHoldsNameUntilWorkerExits: Remove only asks the worker to
// quit. While the worker has not exited — held here at its final fence,
// the write side of sendMu — a Remove that runs out of time returns the
// context's error, the name still resolves to the old session (a second
// Remove is ErrDraining), a create of it is ErrExists and the old
// directory is untouched. The exiting worker deletes the directory and
// frees the name, and the next tenant of it starts from a fresh one.
func TestRemoveHoldsNameUntilWorkerExits(t *testing.T) {
	reg := NewRegistry(4)
	reg.persist = &Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 64}
	dataDir := filepath.Join(reg.persist.DataDir, "x")
	t.Cleanup(func() { reg.Drain(context.Background()) })

	s1 := newRecoverySession(t)
	h, err := reg.Create("x", s1, s1.Current().Schema(), wal.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(t.Context(), h, nil, nil, []*relation.Tuple{relation.NewTuple(0, "908", "MH", "Edi", "WI", "07974")}); err != nil {
		t.Fatal(err)
	}
	h.sendMu.RLock() // the exiting worker waits for the write side
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := reg.Remove(ctx, "x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Remove of a session whose worker is held: %v, want the context's error", err)
	}
	if got, err := reg.Get("x"); err != nil || got != h {
		t.Fatalf("the name no longer resolves to the draining session: %v", err)
	}
	if err := reg.Remove(t.Context(), "x"); !errors.Is(err, ErrDraining) {
		t.Fatalf("second Remove: %v, want ErrDraining", err)
	}
	s2 := newRecoverySession(t)
	if _, err := reg.Create("x", s2, s2.Current().Schema(), wal.Quota{}); !errors.Is(err, ErrExists) {
		t.Fatalf("create while the old worker drains: %v, want ErrExists", err)
	}
	if _, err := os.Stat(walPath(dataDir, 0)); err != nil {
		t.Fatalf("the draining session's directory was touched: %v", err)
	}

	h.sendMu.RUnlock()
	<-h.done
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("the exiting worker left the directory: %v", err)
	}
	if _, err := reg.Get("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the exiting worker did not free the name: %v", err)
	}
	if _, err := reg.Create("x", s2, s2.Current().Schema(), wal.Quota{}); err != nil {
		t.Fatalf("create after the worker exited: %v", err)
	}
	// Fresh: the files a create in an empty directory writes, and a WAL
	// without the old tenant's record.
	s3 := newRecoverySession(t)
	if _, err := reg.Create("y", s3, s3.Current().Schema(), wal.Quota{}); err != nil {
		t.Fatal(err)
	}
	got, want := dirImage(t, dataDir), dirImage(t, filepath.Join(reg.persist.DataDir, "y"))
	if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
		t.Fatalf("the new tenant's directory holds %v, a fresh one %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	if w := filepath.Base(walPath(dataDir, 0)); got[w] != want[w] {
		t.Fatalf("the new tenant's %s is not empty", w)
	}
}

// TestRecoveryRefusesVersion1Store: a page store from an earlier format
// — version 1 filed rows by tuple id, version 2 wrote fixed-width rows,
// version 3 pages of a size its manifest named, version 4 manifests
// without the session header — fails every generation. Recovery skips
// the tenant, names it and the version, and leaves every file as it
// found it.
func TestRecoveryRefusesVersion1Store(t *testing.T) {
	for _, ver := range []byte{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{DataDir: dir, Fsync: FsyncOff, QueueDepth: 8, SnapshotEvery: 2}
			s1 := New(opts)
			ts1 := httptest.NewServer(s1.Handler())
			createRecovery(t, ts1.URL, "old")
			for i := 0; i < 5; i++ {
				applyRecovery(t, ts1.URL, "old", i)
			}
			shutdownService(t, s1, ts1)

			storeDir := filepath.Join(dir, "old", storeDirName)
			ents, err := os.ReadDir(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				path := filepath.Join(storeDir, e.Name())
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len("CFDSTOR")] = ver // every store magic is seven bytes
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirImage(t, dir)

			s2, _ := newTestService(t, opts)
			n, err := s2.Recover()
			if n != 0 || err == nil || !strings.Contains(err.Error(), "old") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", ver)) {
				t.Fatalf("recovered %d sessions, error %v; want none, naming the tenant and version %d", n, err, ver)
			}
			if !maps.Equal(dirImage(t, dir), before) {
				t.Fatal("recovery changed the files of the tenant it refused")
			}
		})
	}
}

// TestRecoveredStoreWritesNoPageUntilAWrite: restoreGeneration attaches
// the reopened store at the restored relation's version, so anchoring the
// recovered state again with no write in between commits a generation of
// zero pages, and that generation restores to the same dump.
func TestRecoveredStoreWritesNoPageUntilAWrite(t *testing.T) {
	opts := Options{DataDir: t.TempDir(), Fsync: FsyncOff, QueueDepth: 8, SnapshotEvery: 1}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, "r")
	for i := 0; i < 3; i++ {
		applyRecovery(t, ts1.URL, "r", i)
	}
	want, _, _ := sessionState(t, ts1.URL, "r")
	h, err := s1.reg.Get("r")
	if err != nil {
		t.Fatal(err)
	}
	h.pers.mu.Lock()
	gen := h.pers.gen
	h.pers.mu.Unlock()
	shutdownService(t, s1, ts1)

	dir := filepath.Join(opts.DataDir, "r")
	dump := func(p *persister) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := p.sess.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	p, err := restoreGeneration(&opts, dir, "r", gen)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(p); !bytes.Equal(got, want) {
		t.Fatalf("generation %d restores to\n%s\nwant\n%s", gen, got, want)
	}
	pages := p.st.Stats().Pages
	if err := p.anchorNow(gen + 1); err != nil {
		t.Fatal(err)
	}
	if st := p.st.Stats(); st.Gen != gen+1 || st.FlushPages != 0 || st.Pages != pages {
		t.Fatalf("anchoring a recovered session with no write: %+v, want generation %d, no page written, %d pages", st, gen+1, pages)
	}
	if got := dump(p); !bytes.Equal(got, want) {
		t.Fatalf("the dump moved across the anchor:\n%s", got)
	}
	p.sess.Close()
	p.close()
	p, err = restoreGeneration(&opts, dir, "r", gen+1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	defer p.sess.Close()
	if got := dump(p); !bytes.Equal(got, want) {
		t.Fatalf("generation %d restores to\n%s\nwant\n%s", gen+1, got, want)
	}
}

// TestRecoveryRefusesInlineGeneration: recovery restores page-store
// generations only, and a generation is a manifest. An inline snapshot
// file — well formed, naming the session, what a build before the page
// store wrote — is no generation. Beside readable manifests it is passed
// over, and the session comes back from the page store and its WAL
// byte-identical to the one that never stopped (the image, taken before
// the batches, would have lost them). As a directory's only file it
// leaves the session unrecoverable and its files as they were, while a
// sibling recovers.
func TestRecoveryRefusesInlineGeneration(t *testing.T) {
	const name = "m"
	opts := Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 1 << 20, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, name)
	createRecovery(t, ts1.URL, "sib")
	h, err := s1.reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := h.sess.PersistSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	inline.Quota = h.pers.quota
	for i := 0; i < 5; i++ {
		applyRecovery(t, ts1.URL, name, i)
		applyRecovery(t, ts1.URL, "sib", i)
	}
	want, wantSnap, wantVios := sessionState(t, ts1.URL, name)
	sibWant, _, _ := sessionState(t, ts1.URL, "sib")
	shutdownService(t, s1, ts1)

	// boot recovers a service from a copy of the stopped one's data dir,
	// after plant changed the session's directory in it.
	boot := func(t *testing.T, plant func(dir string)) (base, dir string, n int, err error) {
		o := opts
		o.DataDir = t.TempDir()
		if err := os.CopyFS(o.DataDir, os.DirFS(opts.DataDir)); err != nil {
			t.Fatal(err)
		}
		dir = filepath.Join(o.DataDir, name)
		plant(dir)
		s, ts := newTestService(t, o)
		n, err = s.Recover()
		return ts.URL, dir, n, err
	}
	inlineFile := func(dir string, gen uint64) {
		t.Helper()
		if err := wal.WriteSnapshotFile(filepath.Join(dir, fmt.Sprintf("snap-%010d.snap", gen)), inline); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("over a paged generation", func(t *testing.T) {
		base, _, n, err := boot(t, func(dir string) { inlineFile(dir, 1) })
		if err != nil || n != 2 {
			t.Fatalf("recovered %d sessions, error %v; want both, no error", n, err)
		}
		got, gotSnap, gotVios := sessionState(t, base, name)
		if !bytes.Equal(want, got) || wantSnap != gotSnap || wantVios != gotVios {
			t.Fatalf("recovered session diverged from the live one\nwant:\n%s%+v\n%s\ngot:\n%s%+v\n%s", want, wantSnap, wantVios, got, gotSnap, gotVios)
		}
	})
	t.Run("as the only generation", func(t *testing.T) {
		var before map[string]string
		base, dir, n, err := boot(t, func(dir string) {
			inlineFile(dir, 0)
			if err := os.RemoveAll(filepath.Join(dir, storeDirName)); err != nil {
				t.Fatal(err)
			}
			before = dirImage(t, dir)
		})
		if n != 1 || err == nil || !strings.Contains(err.Error(), "recover "+name+": no manifest found") {
			t.Fatalf("recovered %d sessions, error %v; want the sibling only, the error naming %q", n, err, name)
		}
		if !maps.Equal(dirImage(t, dir), before) {
			t.Fatal("recovery changed the files of the session it refused")
		}
		if resp, _ := do(t, "GET", base+"/v1/sessions/"+name, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("the refused session answers %d, want 404", resp.StatusCode)
		}
		if got, _, _ := sessionState(t, base, "sib"); !bytes.Equal(sibWant, got) {
			t.Fatalf("the sibling diverged\nwant:\n%s\ngot:\n%s", sibWant, got)
		}
	})
}

func TestParseGenName(t *testing.T) {
	for name, want := range map[string]struct {
		gen  uint64
		kind string
		ok   bool
	}{
		"snap-0000000007.snap":     {0, "", false},
		"wal-0000000123.log":       {123, "wal", true},
		"pages-0000000002.dat":     {2, "pages", true},
		"order-0000000002.dat":     {0, "", false},
		"manifest-0000000002.mft":  {2, "manifest", true},
		"snap-0000000007.snap.tmp": {0, "", false},
		"wal-x.log":                {0, "", false},
		"wal-7.log":                {0, "", false},
		"snap-0000000007.log":      {0, "", false},
		"dict-0000000001.log":      {0, "", false},
		"README":                   {0, "", false},
	} {
		kind, gen, ok := wal.ParseGenName(name)
		if gen != want.gen || kind != want.kind || ok != want.ok {
			t.Fatalf("ParseGenName(%q) = %q %d %v", name, kind, gen, ok)
		}
	}
}

// TestRoleMarkerWrites: the marker goes through the atomic writer (no
// temporary sibling survives), clearing an absent marker is not an
// error, and a write that cannot happen is reported — register and
// Promote turn that report into a broken persister.
func TestRoleMarkerWrites(t *testing.T) {
	dir := t.TempDir()
	if err := writeRoleMarker(dir, false); err != nil {
		t.Fatalf("clearing an absent marker: %v", err)
	}
	if err := writeRoleMarker(dir, true); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !readRoleMarker(dir) || len(ents) != 1 || ents[0].Name() != roleMarkerName {
		t.Fatalf("after marking: marker %v, directory %v", readRoleMarker(dir), ents)
	}
	if err := writeRoleMarker(dir, false); err != nil || readRoleMarker(dir) {
		t.Fatalf("after clearing: err %v, marker %v", err, readRoleMarker(dir))
	}
	if err := writeRoleMarker(filepath.Join(dir, "gone"), true); err == nil {
		t.Fatal("marker write into a missing directory reported no error")
	}
}

// dirSums returns the sha256 of every file under dir, keyed by its path
// relative to dir.
func dirSums(t *testing.T, dir string) map[string]string {
	t.Helper()
	sums := map[string]string{}
	for path, b := range dirImage(t, dir) {
		sums[path] = fmt.Sprintf("%x", sha256.Sum256([]byte(b)))
	}
	return sums
}

// TestRecoveryRefusesCopiedSession: a session directory copied under
// another name holds manifests whose header names the session it was
// copied from. Recovery refuses every one of them — restoring the copy
// would serve one tenant's state under another's name — names the
// session the header holds, and leaves the copy's files as they were,
// while the original recovers byte-identical.
func TestRecoveryRefusesCopiedSession(t *testing.T) {
	opts := Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 2, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, "orig")
	for i := 0; i < 3; i++ {
		applyRecovery(t, ts1.URL, "orig", i)
	}
	want, _, _ := sessionState(t, ts1.URL, "orig")
	shutdownService(t, s1, ts1)
	copyDir := filepath.Join(opts.DataDir, "copy")
	if err := os.CopyFS(copyDir, os.DirFS(filepath.Join(opts.DataDir, "orig"))); err != nil {
		t.Fatal(err)
	}
	before := dirSums(t, copyDir)

	s2, ts2 := newTestService(t, opts)
	n, err := s2.Recover()
	if n != 1 || err == nil || !strings.Contains(err.Error(), "recover copy: no usable generation") ||
		!strings.Contains(err.Error(), `names session "orig"`) {
		t.Fatalf("recovered %d sessions, error %v; want the original only, the copy refused for naming %q", n, err, "orig")
	}
	if got, _, _ := sessionState(t, ts2.URL, "orig"); !bytes.Equal(got, want) {
		t.Fatalf("the original diverged\nwant:\n%s\ngot:\n%s", want, got)
	}
	if resp, _ := do(t, "GET", ts2.URL+"/v1/sessions/copy", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("the copy answers %d, want 404", resp.StatusCode)
	}
	if !maps.Equal(dirSums(t, copyDir), before) {
		t.Fatal("recovery changed the files of the copy it refused")
	}
}

// TestRecoveryRefusesPreviousFormatDataDir: testdata/golden/datadir-v4
// holds a data directory the build before format 5 wrote — store and WAL
// files of version 4, and a snap-*.snap header beside each generation's
// manifest (a session created, three batches at -snap-every 2). Recovery
// refuses it at boot, naming the tenant and the version, and leaves every
// file byte-identical by sha256.
func TestRecoveryRefusesPreviousFormatDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("../../testdata/golden/datadir-v4")); err != nil {
		t.Fatal(err)
	}
	before := dirSums(t, dir)
	if len(before) != 9 {
		t.Fatalf("the fixture holds %d files, want 9: %v", len(before), slices.Sorted(maps.Keys(before)))
	}
	s, _ := newTestService(t, Options{DataDir: dir, Fsync: FsyncOff, QueueDepth: 8})
	n, err := s.Recover()
	if n != 0 || err == nil || !strings.Contains(err.Error(), "recover old: no usable generation") ||
		!strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("recovered %d sessions, error %v; want none, naming the tenant and version 4", n, err)
	}
	if !maps.Equal(dirSums(t, dir), before) {
		t.Fatal("recovery changed the files of the data directory it refused")
	}
}
