package server

// What every anchor must leave behind. There is one way a session's
// state becomes a generation on disk (persister.capture + anchor), used
// by session create, routine rotation, the re-anchor after a failed pass
// and recovery's re-anchor; this battery drives each of the four,
// asserts the same postconditions on the session directory, then boots
// a second server on a copy of it — what kill -9 would leave — and
// requires a byte-identical dump. No request reaches the failed-pass
// re-anchor (Check refuses what ApplyOps would fail on), so that
// scenario runs the worker's and the committer's halves of it directly,
// between two batches, while the session is quiescent.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// requireAnchored asserts the postconditions of an anchor at generation
// gen in the directory dir of session name: a generation is a WAL and a
// store manifest, both at gen, nothing newer, at most two generations
// kept, no other file beside them but a follower's role marker, and the
// manifest's header naming the session.
func requireAnchored(t *testing.T, dir, name string, gen uint64) {
	t.Helper()
	storeDir := filepath.Join(dir, storeDirName)
	wals, err := genFiles(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	manifests, err := genFiles(storeDir, "manifest")
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) == 0 || wals[len(wals)-1] != gen || len(manifests) == 0 || manifests[len(manifests)-1] != gen {
		t.Fatalf("the newest generation is not a wal/manifest pair at %d: wals %v, manifests %v", gen, wals, manifests)
	}
	if len(wals) > 2 || len(manifests) > 2 {
		t.Fatalf("more than two generations kept: wals %v, manifests %v", wals, manifests)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if kind, _, _ := wal.ParseGenName(e.Name()); kind != "wal" && e.Name() != storeDirName && e.Name() != roleMarkerName {
			t.Fatalf("the session directory holds %s beside its generations", e.Name())
		}
	}
	st, snap, err := store.Open(storeDir, gen)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if snap.Name != name {
		t.Fatalf("manifest %d names session %q, want %q", gen, snap.Name, name)
	}
}

func TestEveryAnchorLeavesARecoverableGeneration(t *testing.T) {
	const name = "a"
	scenarios := []struct {
		name      string
		snapEvery int
		// drive takes the freshly created session to the anchor under
		// test and returns the server now hosting it.
		drive   func(t *testing.T, opts Options, s *Server, base string) (live string)
		wantGen uint64
	}{
		{"create", 1 << 20, func(t *testing.T, _ Options, _ *Server, base string) string {
			return base
		}, 0},
		{"routine rotation", 2, func(t *testing.T, _ Options, _ *Server, base string) string {
			for i := 0; i < 5; i++ { // rotates after batches 2 and 4
				applyRecovery(t, base, name, i)
			}
			return base
		}, 2},
		{"failed-pass re-anchor", 1 << 20, func(t *testing.T, _ Options, s *Server, base string) string {
			applyRecovery(t, base, name, 1)
			h, err := s.reg.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			h.pers.rotate(h.pers.boundary(true))
			applyRecovery(t, base, name, 2) // lands in the new generation's WAL
			return base
		}, 1},
		{"recovery re-anchor, tip WAL missing", 2, func(t *testing.T, opts Options, s *Server, base string) string {
			applyRecovery(t, base, name, 0)
			applyRecovery(t, base, name, 1) // rotates to generation 1; its WAL stays empty
			if err := s.Shutdown(t.Context()); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(walPath(filepath.Join(opts.DataDir, name), 1)); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestService(t, opts)
			if n, err := s2.Recover(); err != nil || n != 1 {
				t.Fatalf("recover without the tip WAL: n=%d err=%v", n, err)
			}
			return ts2.URL
		}, 2},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			opts := Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: sc.snapEvery, QueueDepth: 8}
			s, ts := newTestService(t, opts)
			createRecovery(t, ts.URL, name)
			live := sc.drive(t, opts, s, ts.URL)

			requireAnchored(t, filepath.Join(opts.DataDir, name), name, sc.wantGen)
			if _, body := do(t, "GET", live+"/v1/sessions/"+name, nil); !bytes.Contains(body, []byte(`"persist":"ok"`)) {
				t.Fatalf("session is not persisting after the anchor: %s", body)
			}

			// A second server on a copy of the directory, taken while the
			// first is still live: recovered ≡ never-crashed.
			want, wantSnap, wantVios := sessionState(t, live, name)
			crashed := opts
			crashed.DataDir = t.TempDir()
			if err := os.CopyFS(crashed.DataDir, os.DirFS(opts.DataDir)); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestService(t, crashed)
			if n, err := s2.Recover(); err != nil || n != 1 {
				t.Fatalf("recover from the anchored directory: n=%d err=%v", n, err)
			}
			got, gotSnap, gotVios := sessionState(t, ts2.URL, name)
			if !bytes.Equal(want, got) || wantSnap != gotSnap || wantVios != gotVios {
				t.Fatalf("restart diverged from the live session\nwant:\n%s%+v\ngot:\n%s%+v", want, wantSnap, got, gotSnap)
			}
		})
	}
}
