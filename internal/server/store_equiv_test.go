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
	"slices"
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

// TestDiskRecoveryKillAtEveryAnchorStep crashes a rotation between the
// steps of its anchor and requires recovery to land byte-identical on the
// last acknowledged batch. The anchor's steps are the store commit
// (dict.log append, the page file, the manifest — the commit point that
// holds the session header beside the page table) and the fresh WAL. A
// directory planted where a step's file must go fails that step, which
// breaks the first life's persister after the batch was acknowledged;
// recovery then runs on a copy of the directory with the blocker gone,
// the state a kill -9 between the step and the one before it leaves. A
// crash after the manifest commit recovers from the new manifest alone:
// with every WAL removed as well, the state is still all there.
func TestDiskRecoveryKillAtEveryAnchorStep(t *testing.T) {
	const name = "crashy"
	for _, step := range []struct {
		name, blocker string
		committed     bool // whether manifest 1 is on disk after the crash
	}{
		{"before the page file", "store/pages-0000000001.dat", false},
		{"before the manifest", "store/manifest-0000000001.mft.tmp", false},
		{"between the manifest and the wal", "wal-0000000001.log", true},
	} {
		t.Run(step.name, func(t *testing.T) {
			opts := Options{DataDir: t.TempDir(), Fsync: FsyncBatch, SnapshotEvery: 2, QueueDepth: 8}
			s1 := New(opts)
			ts1 := httptest.NewServer(s1.Handler())
			createStored(t, ts1.URL, name, &WireOptions{Ordering: "linear"})
			applyRecovery(t, ts1.URL, name, 0)
			dir := filepath.Join(opts.DataDir, name)
			if err := os.Mkdir(filepath.Join(dir, step.blocker), 0o755); err != nil {
				t.Fatal(err)
			}
			applyRecovery(t, ts1.URL, name, 1) // acknowledged; its rotation to generation 1 fails
			want, wantSnap, wantVios := sessionState(t, ts1.URL, name)
			if _, body := do(t, "GET", ts1.URL+"/v1/sessions/"+name, nil); !bytes.Contains(body, []byte(`"persist":"error: `)) {
				t.Fatalf("the blocked rotation did not break the persister: %s", body)
			}
			ts1.Close() // kill

			boot := func(t *testing.T, strip func(dir string)) string {
				t.Helper()
				crashed := opts
				crashed.DataDir = t.TempDir()
				if err := os.CopyFS(crashed.DataDir, os.DirFS(opts.DataDir)); err != nil {
					t.Fatal(err)
				}
				cdir := filepath.Join(crashed.DataDir, name)
				if err := os.RemoveAll(filepath.Join(cdir, step.blocker)); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(filepath.Join(cdir, storeDirName, "manifest-0000000001.mft")); (err == nil) != step.committed {
					t.Fatalf("manifest 1 on disk: %v, want %v", err == nil, step.committed)
				}
				strip(cdir)
				s2, ts2 := newTestService(t, crashed)
				if n, err := s2.Recover(); err != nil || n != 1 {
					t.Fatalf("recover: n=%d err=%v", n, err)
				}
				got, gotSnap, gotVios := sessionState(t, ts2.URL, name)
				if !bytes.Equal(got, want) || gotSnap != wantSnap || gotVios != wantVios {
					t.Fatalf("recovery diverged from the acknowledged state\nwant:\n%s%+v\ngot:\n%s%+v", want, wantSnap, got, gotSnap)
				}
				applyRecovery(t, ts2.URL, name, 2)
				if _, body := do(t, "GET", ts2.URL+"/v1/sessions/"+name, nil); !bytes.Contains(body, []byte(`"persist":"ok"`)) {
					t.Fatalf("the recovered session is not persisting: %s", body)
				}
				return cdir
			}
			cdir := boot(t, func(string) {})
			if step.committed {
				// Manifest 1 restored with no WAL behind it: recovery
				// anchored generation 2.
				requireAnchored(t, cdir, name, 2)
				boot(t, func(cdir string) {
					wals, err := genFiles(cdir, "wal")
					if err != nil {
						t.Fatal(err)
					}
					for _, g := range wals {
						if err := os.Remove(walPath(cdir, g)); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestDiskStoreFilesOnDisk sanity-checks the physical layout: after a
// create and two rotations a durable tenant's generations are WAL files
// beside a store/ subdirectory of manifests and page files, each
// generation one wal-<gen>.log and one store/manifest-<gen>.mft, with no
// snapshot file among them, and removal deletes all of it.
func TestDiskStoreFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: FsyncOff, SnapshotEvery: 2, QueueDepth: 8}
	s, ts := newTestService(t, opts)
	createStored(t, ts.URL, "phys", nil)
	for i := 0; i < 5; i++ { // rotates after batches 2 and 4
		applyRecovery(t, ts.URL, "phys", i)
	}

	storeDir := filepath.Join(dir, "phys", "store")
	ents, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatalf("durable tenant has no store dir: %v", err)
	}
	var pages int
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "pages-") {
			pages++
		}
	}
	manifests, err := genFiles(storeDir, "manifest")
	if err != nil {
		t.Fatal(err)
	}
	wals, err := genFiles(filepath.Join(dir, "phys"), "wal")
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 || !slices.Equal(manifests, []uint64{1, 2}) || !slices.Equal(wals, manifests) {
		t.Fatalf("store dir holds %d page files and manifests %v, the session dir wals %v; want both generations 1 and 2 as wal/manifest pairs (entries: %v)", pages, manifests, wals, ents)
	}
	sents, err := os.ReadDir(filepath.Join(dir, "phys"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sents {
		if strings.HasPrefix(e.Name(), "snap-") {
			t.Fatalf("the session directory holds a snapshot file, %s", e.Name())
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
