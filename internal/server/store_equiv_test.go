package server

// The durable-vs-memory equivalence battery: a durable session, whose
// snapshots go through the page store, must be indistinguishable from a
// memory-only one through every read surface — CSV dumps, violation
// listings and stats fingerprints compare with bytes.Equal, not
// semantically — and a durable tenant
// killed at any batch boundary must recover byte-identical and keep
// serving. Durability is an implementation detail of the service; the
// moment it becomes observable in a response body,
// determinism-by-construction is broken. It is a node property
// (Options.DataDir), so "durable vs memory-only" is two nodes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// createStored opens a session with the given engine options.
func createStored(t *testing.T, base, name string, wo *WireOptions) {
	t.Helper()
	resp, body := do(t, "POST", base+"/v1/sessions", CreateRequest{
		Name:    name,
		CFDs:    recoveryCFDs,
		BaseCSV: recoveryBase,
		Options: wo,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: %d: %s", name, resp.StatusCode, body)
	}
}

// statsFingerprint renders the comparable per-session state as one
// byte string: the published snapshot (counters, cost, violation count)
// plus the violation listing body.
func statsFingerprint(t *testing.T, base, name string) []byte {
	t.Helper()
	dump, snap, vios := sessionState(t, base, name)
	var b bytes.Buffer
	fmt.Fprintf(&b, "snap=%+v\nvios=%s\ndumplen=%d\n", snap, vios, len(dump))
	return b.Bytes()
}

// TestDiskMemEquivalenceAcrossWorkers drives the identical batch
// sequence — repaired and clean inserts, deletes, sets — through a
// durable and a memory-only service and requires byte-identical dumps,
// violation listings and stats. The engine runs every session on its one
// worker, so the default configuration (workers=0) is the only one left
// of the worker counts this test once swept.
func TestDiskMemEquivalenceAcrossWorkers(t *testing.T) {
	t.Run("workers=0", testDiskMemEquivalence)
}

func testDiskMemEquivalence(t *testing.T) {
	wo := &WireOptions{Ordering: "linear"}
	// Same session name on two servers, so response bodies that
	// embed the name still compare byte-for-byte.
	const name = "t"
	optsMem := Options{Fsync: FsyncOff, SnapshotEvery: 3, QueueDepth: 8}
	optsDisk := optsMem
	optsDisk.DataDir = t.TempDir()
	_, tsMem := newTestService(t, optsMem)
	_, tsDisk := newTestService(t, optsDisk)

	createStored(t, tsMem.URL, name, wo)
	createStored(t, tsDisk.URL, name, wo)

	drive := func(base string) {
		for i := 0; i < 8; i++ { // crosses SnapshotEvery=3 rotations
			applyRecovery(t, base, name, i)
		}
		// One mixed batch: delete the first streamed tuple, dirty
		// one surviving cell.
		resp, body := do(t, "POST", base+"/v1/sessions/"+name+"/apply", ApplyRequest{
			Deletes: []int64{5},
			Sets:    []WireSet{{ID: 6, Attr: "CT", Value: strp("PHI")}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mixed apply: %d: %s", resp.StatusCode, body)
		}
	}
	drive(tsMem.URL)
	drive(tsDisk.URL)

	memDump, memSnap, memVios := sessionState(t, tsMem.URL, name)
	diskDump, diskSnap, diskVios := sessionState(t, tsDisk.URL, name)
	if !bytes.Equal(memDump, diskDump) {
		t.Fatalf("dump diverged:\nmemory-only:\n%s\ndurable:\n%s", memDump, diskDump)
	}
	if memSnap != diskSnap {
		t.Fatalf("snapshot diverged:\nmemory-only %+v\ndurable     %+v", memSnap, diskSnap)
	}
	if memVios != diskVios {
		t.Fatalf("violations diverged:\nmemory-only %s\ndurable     %s", memVios, diskVios)
	}
	if !bytes.Equal(statsFingerprint(t, tsMem.URL, name), statsFingerprint(t, tsDisk.URL, name)) {
		t.Fatal("stats fingerprints diverged")
	}

	// Durability IS observable in the one place it should be:
	// the durable session's listing carries store stats, the
	// memory-only session's stays byte-stable without them.
	var memInfo, diskInfo SessionInfo
	_, body := do(t, "GET", tsMem.URL+"/v1/sessions/"+name, nil)
	if err := json.Unmarshal(body, &memInfo); err != nil {
		t.Fatal(err)
	}
	_, body = do(t, "GET", tsDisk.URL+"/v1/sessions/"+name, nil)
	if err := json.Unmarshal(body, &diskInfo); err != nil {
		t.Fatal(err)
	}
	if memInfo.Store != nil {
		t.Fatalf("memory-only listing reports store stats: %+v", memInfo.Store)
	}
	if diskInfo.Store == nil {
		t.Fatal("durable listing reports no store stats")
	}
	if diskInfo.Store.Kind != "disk" || diskInfo.Store.Gen == 0 || diskInfo.Store.Tuples == 0 {
		t.Fatalf("disk store stats never advanced: %+v", diskInfo.Store)
	}
}

// TestDiskRecoveryKillAtEveryBoundary kills a durable tenant (no
// drain, no graceful close — the in-process equivalent of kill -9)
// after every batch boundary from 0 through 7 and requires recovery to
// reproduce the exact pre-kill state and keep serving. FsyncBatch makes
// the acknowledged state the durable state, so the captured responses
// are the contract.
func TestDiskRecoveryKillAtEveryBoundary(t *testing.T) {
	const name = "crashy"
	const total = 7
	for k := 0; k <= total; k++ {
		t.Run(fmt.Sprintf("boundary=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{DataDir: dir, Fsync: FsyncBatch, SnapshotEvery: 2, QueueDepth: 8}

			// First life: never drained, never shut down — its goroutines
			// are simply abandoned, exactly what SIGKILL leaves behind
			// minus the page cache (shared here, as on a real crash).
			s1 := New(opts)
			ts1 := httptest.NewServer(s1.Handler())
			createStored(t, ts1.URL, name, &WireOptions{Ordering: "linear"})
			for i := 0; i < k; i++ {
				applyRecovery(t, ts1.URL, name, i)
			}
			wantDump, wantSnap, wantVios := sessionState(t, ts1.URL, name)
			ts1.Close() // kill: the listener dies mid-life, nothing flushes

			s2, ts2 := newTestService(t, opts)
			if n, err := s2.Recover(); err != nil || n != 1 {
				t.Fatalf("recover after kill at boundary %d: n=%d err=%v", k, n, err)
			}
			gotDump, gotSnap, gotVios := sessionState(t, ts2.URL, name)
			if !bytes.Equal(gotDump, wantDump) {
				t.Fatalf("boundary %d: dump diverged after kill\nwant:\n%s\ngot:\n%s", k, wantDump, gotDump)
			}
			if gotSnap != wantSnap {
				t.Fatalf("boundary %d: snapshot diverged after kill\nwant %+v\ngot  %+v", k, wantSnap, gotSnap)
			}
			if gotVios != wantVios {
				t.Fatalf("boundary %d: violations diverged after kill:\nwant %s\ngot  %s", k, wantVios, gotVios)
			}

			// The recovered tenant is a working durable session, not a
			// read-only relic: it takes writes, persists them, and survives
			// a second (graceful) bounce.
			applyRecovery(t, ts2.URL, name, 100+k)
			d2, _, _ := sessionState(t, ts2.URL, name)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s2.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			ts2.Close()

			s3, ts3 := newTestService(t, opts)
			if n, err := s3.Recover(); err != nil || n != 1 {
				t.Fatalf("second recovery: n=%d err=%v", n, err)
			}
			d3, _, _ := sessionState(t, ts3.URL, name)
			if !bytes.Equal(d3, d2) {
				t.Fatalf("boundary %d: post-recovery batch did not survive the next bounce", k)
			}
		})
	}
}

// TestDiskStoreFilesOnDisk sanity-checks the physical layout: a
// durable tenant owns a store/ subdirectory with a manifest and
// page files, its snapshots are slim (no inline tuple payload), and
// removal deletes all of it.
func TestDiskStoreFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: FsyncOff, SnapshotEvery: 2, QueueDepth: 8}
	s, ts := newTestService(t, opts)
	createStored(t, ts.URL, "phys", nil)
	for i := 0; i < 5; i++ {
		applyRecovery(t, ts.URL, "phys", i)
	}

	storeDir := filepath.Join(dir, "phys", "store")
	ents, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatalf("durable tenant has no store dir: %v", err)
	}
	var manifests, pages int
	for _, e := range ents {
		switch {
		case strings.HasPrefix(e.Name(), "manifest-"):
			manifests++
		case strings.HasPrefix(e.Name(), "pages-"):
			pages++
		}
	}
	if manifests == 0 || pages == 0 {
		t.Fatalf("store dir holds %d manifests, %d page files; want both > 0 (entries: %v)", manifests, pages, ents)
	}

	// Slim snapshots: with 9+ tuples resident, the snapshot file must
	// stay far below what inline tuple encoding would need — the page
	// store holds the rows.
	sents, err := os.ReadDir(filepath.Join(dir, "phys"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sents {
		if !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 4096 {
			t.Fatalf("snapshot %s is %d bytes — the tuple payload leaked inline", e.Name(), fi.Size())
		}
	}

	resp, body := do(t, "DELETE", ts.URL+"/v1/sessions/phys", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "phys")); !os.IsNotExist(err) {
		t.Fatalf("removed tenant's directory (store included) still exists: %v", err)
	}
	_ = s
}
