package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cfdclean/internal/wal"
)

// TestRecoveryConvertsInlineGeneration: a session directory in the layout
// a node wrote before the page store was the only snapshot writer — an
// inline snap-0 carrying every tuple and a wal-0 holding the batches
// after it — recovers byte-identical to the session that never crashed,
// comes back as a paged generation at the next number, and keeps
// serving: its writes match the live session's, and a second boot
// restores them through the page store. The second case adds the stale
// store/ directory an interrupted conversion leaves beside the inline
// snapshot; recovery replaces it.
func TestRecoveryConvertsInlineGeneration(t *testing.T) {
	const name = "m"
	for _, tc := range []struct {
		name       string
		staleStore bool
	}{
		{"inline snapshot", false},
		{"stale store beside it", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The never-crashed session. Its WAL records are the bytes
			// any node writes; only the snapshot is rewritten below.
			live := Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 1 << 20, QueueDepth: 8}
			s1, ts1 := newTestService(t, live)
			createRecovery(t, ts1.URL, name)
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
			}
			want, wantSnap, wantVios := sessionState(t, ts1.URL, name)

			old := Options{DataDir: t.TempDir(), Fsync: FsyncOff, SnapshotEvery: 1 << 20, QueueDepth: 8}
			dir := filepath.Join(old.DataDir, name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteSnapshotFile(snapPath(dir, 0), inline); err != nil {
				t.Fatal(err)
			}
			walBytes, err := os.ReadFile(walPath(filepath.Join(live.DataDir, name), 0))
			if err != nil {
				t.Fatal(err)
			}
			if recs := walRecords(t, live.DataDir, name, 0); len(recs) != 5 {
				t.Fatalf("the live WAL holds %d records, want the 5 batches", len(recs))
			}
			if err := os.WriteFile(walPath(dir, 0), walBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			stale := filepath.Join(dir, storeDirName, "pages-0000000007.dat")
			if tc.staleStore {
				if err := os.CopyFS(filepath.Join(dir, storeDirName), os.DirFS(filepath.Join(live.DataDir, name, storeDirName))); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(stale, []byte("half a conversion"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2, ts2 := newTestService(t, old)
			if n, err := s2.Recover(); err != nil || n != 1 {
				t.Fatalf("recover the inline layout: n=%d err=%v", n, err)
			}
			got, gotSnap, gotVios := sessionState(t, ts2.URL, name)
			if !bytes.Equal(want, got) || wantSnap != gotSnap || wantVios != gotVios {
				t.Fatalf("converted session diverged from the live one\nwant:\n%s%+v\n%s\ngot:\n%s%+v\n%s", want, wantSnap, wantVios, got, gotSnap, gotVios)
			}
			requireAnchored(t, dir, 1)
			if _, err := os.Stat(stale); !os.IsNotExist(err) {
				t.Fatalf("the stale store's file survived the conversion (%v)", err)
			}

			for i := 5; i < 8; i++ {
				applyRecovery(t, ts1.URL, name, i)
				applyRecovery(t, ts2.URL, name, i)
			}
			want, _, _ = sessionState(t, ts1.URL, name)
			if got, _, _ := sessionState(t, ts2.URL, name); !bytes.Equal(want, got) {
				t.Fatalf("writes after the conversion diverged\nwant:\n%s\ngot:\n%s", want, got)
			}
			shutdownService(t, s2, ts2)
			s3, ts3 := newTestService(t, old)
			if n, err := s3.Recover(); err != nil || n != 1 {
				t.Fatalf("recover the converted session: n=%d err=%v", n, err)
			}
			if got, _, _ := sessionState(t, ts3.URL, name); !bytes.Equal(want, got) {
				t.Fatalf("the converted session's writes did not survive a bounce\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}
