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
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

	// Rotation must have pruned old generations: at most 2 snapshot
	// generations (current + fallback) per session remain.
	for _, n := range names {
		ents, err := os.ReadDir(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		snaps := 0
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".snap") {
				snaps++
			}
		}
		if snaps == 0 || snaps > 2 {
			t.Fatalf("%s: %d snapshot generations on disk", n, snaps)
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
// page-store header must end its file: one trailed by a byte is refused
// like a destroyed snapshot.
func TestServerRecoverySkipsCorruptTenant(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: FsyncOff, QueueDepth: 8}
	s1 := New(opts)
	ts1 := httptest.NewServer(s1.Handler())
	createRecovery(t, ts1.URL, "healthy")
	applyRecovery(t, ts1.URL, "healthy", 1)
	createRecovery(t, ts1.URL, "trailed")
	shutdownService(t, s1, ts1)
	trailed, err := os.OpenFile(filepath.Join(dir, "trailed", "snap-0000000000.snap"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trailed.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	trailed.Close()

	// A tenant directory with a destroyed snapshot and one with no
	// snapshot at all.
	badDir := filepath.Join(dir, "broken")
	if err := os.MkdirAll(badDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badDir, "snap-0000000000.snap"), []byte("not a snapshot"), 0o644); err != nil {
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
		!strings.Contains(err.Error(), "trailed: no usable snapshot") {
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

// TestFinishPersistSupersededKeepsData exercises the purge guard
// directly: a Remove can return on context expiry with the name freed
// while the old worker is still draining, and a client can re-create
// the session in that window. The old worker's cleanup must notice it
// was superseded and leave the new tenant's directory alone — and must
// still delete the directory when it was not superseded.
func TestFinishPersistSupersededKeepsData(t *testing.T) {
	newSess := func() *increpair.Session {
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
		return sess
	}
	reg := NewRegistry(4)
	reg.persist = &Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 64}
	dataDir := filepath.Join(reg.persist.DataDir, "x")

	// Not superseded: purge removes the directory.
	s1 := newSess()
	p1, err := newPersister(reg.persist, "x", s1, wal.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	h1 := &hosted{name: "x", sess: s1, pers: p1}
	h1.purge.Store(true)
	h1.finishPersist(reg)
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("unsuperseded purge left the directory: %v", err)
	}

	// Superseded: a new hosted session owns the name (and a rebuilt
	// directory); the stale worker's purge must keep its hands off.
	s2 := newSess()
	pOld, err := newPersister(reg.persist, "x", s2, wal.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	hOld := &hosted{name: "x", sess: s2, pers: pOld}
	hOld.purge.Store(true)
	s3 := newSess()
	hNew, err := reg.Create("x", s3, s3.Current().Schema(), wal.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	hOld.finishPersist(reg)
	if _, err := os.Stat(filepath.Join(dataDir, "snap-0000000000.snap")); err != nil {
		t.Fatalf("stale purge destroyed the new session's data: %v", err)
	}
	// And the new session still works + cleans up through Remove.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Remove(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	<-hNew.done
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("real Remove left the directory: %v", err)
	}
}

// TestRecoveryRefusesVersion1Store: a page store from the format that
// filed rows by tuple id (its files stamped version 1) fails every
// snapshot generation that names it. Recovery skips the tenant, names it
// and the version, and leaves every file as it found it.
func TestRecoveryRefusesVersion1Store(t *testing.T) {
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
		b[len("CFDSTOR")] = 1 // every store magic is seven bytes
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirImage(t, dir)

	s2, _ := newTestService(t, opts)
	n, err := s2.Recover()
	if n != 0 || err == nil || !strings.Contains(err.Error(), "old") || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("recovered %d sessions, error %v; want none, naming the tenant and version 1", n, err)
	}
	if !maps.Equal(dirImage(t, dir), before) {
		t.Fatal("recovery changed the files of the tenant it refused")
	}
}

func TestParseGenName(t *testing.T) {
	for name, want := range map[string]struct {
		gen  uint64
		kind string
		ok   bool
	}{
		"snap-0000000007.snap":     {7, "snap", true},
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
