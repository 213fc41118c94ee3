package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cfdclean/internal/gen"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
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

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// freshRows hands out a snapshot's rows each in storage of its own —
// values, constants and weights — as a decoder must, so a restore from
// it allocates what a restore from a stream does but the reading.
type freshRows struct {
	ts []wal.SnapTuple
	i  int
}

func (s *freshRows) Next() (wal.SnapTuple, bool, error) {
	if s.i == len(s.ts) {
		return wal.SnapTuple{}, false, nil
	}
	t := s.ts[s.i]
	s.i++
	vals := make([]relation.Value, len(t.Vals))
	for a, v := range t.Vals {
		vals[a] = relation.Value{Str: strings.Clone(v.Str), Null: v.Null}
	}
	var w []float64
	if t.W != nil {
		w = append([]float64(nil), t.W...)
	}
	return wal.SnapTuple{ID: t.ID, Vals: vals, W: w}, true, nil
}

// TestInstallAndRecoveryCostOneChunk is increpair's
// TestSnapshotCostsOneChunk for the two ends of the service that restore
// a snapshot stream: InstallReplica from a PUT body (behind the install
// bound's reader, as the handler hands it over) and Recover's restore of
// an inline generation (restoreGeneration over the snap file
// TestRecoveryConvertsInlineGeneration boots from; the conversion into a
// page store that follows writes every page, whatever the reader).
// What each allocates beyond a restore from rows already in memory, at
// 2 000 and at 20 000 generated tuples, must be within one chunk record
// — the 20 000-tuple image's first, 4 096 rows — of each other: neither
// holds more than one chunk of the image, whatever its size.
func TestInstallAndRecoveryCostOneChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a 20 000-tuple session")
	}
	ds, err := gen.New(gen.Config{Size: 20200, NoiseRate: 0.08, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const name = "c"
	var install, recovery [2]uint64
	var chunk int
	for i, n := range []int{2000, 20000} {
		rel := relation.New(ds.Schema)
		for _, tu := range ds.Opt.Tuples()[:n] {
			rel.MustInsert(tu.Clone())
		}
		sess, err := increpair.NewSession(rel, ds.Sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := sess.PersistSnapshot(name)
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := wal.WriteSnapshot(&img, snap); err != nil {
			t.Fatal(err)
		}
		if n == 20000 {
			r := bytes.NewReader(img.Bytes()[len("CFDSNAP")+1:])
			wal.ReadFrame(r, img.Len()) // the header record
			first, err := wal.ReadFrame(r, img.Len())
			if err != nil {
				t.Fatal(err)
			}
			chunk = len(first)
		}
		rows := snap.Tuples
		snap.Tuples = nil
		var back *increpair.Session
		inMemory := allocated(func() { back, err = increpair.RestoreFromSnapshotSource(snap, &freshRows{ts: rows}, nil) })
		if err != nil {
			t.Fatal(err)
		}
		back.Close()

		reg := NewRegistry(8)
		body := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(img.Bytes())), replicaBodyLimit)
		installed := allocated(func() { err = reg.InstallReplica(context.Background(), name, body) })
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Remove(context.Background(), name); err != nil {
			t.Fatal(err)
		}
		install[i] = installed - min(installed, inMemory)

		dir := t.TempDir()
		if err := os.WriteFile(snapPath(dir, 0), img.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := allocated(func() { back, _, err = restoreGeneration(dir, name, 0) })
		if err != nil {
			t.Fatal(err)
		}
		back.Close()
		recovery[i] = recovered - min(recovered, inMemory)
		t.Logf("%d tuples: in memory %d B, install %d B, recover %d B", n, inMemory, installed, recovered)
	}
	t.Logf("one chunk %d B; InstallReplica beyond the rows %d and %d B; Recover %d and %d B", chunk, install[0], install[1], recovery[0], recovery[1])
	for _, c := range []struct {
		name string
		b    [2]uint64
	}{{"InstallReplica", install}, {"Recover", recovery}} {
		if c.b[1] > c.b[0]+uint64(chunk) {
			t.Errorf("%s allocates %d B beyond the rows at 20 000 tuples, %d B at 2 000: more than one chunk (%d B) apart", c.name, c.b[1], c.b[0], chunk)
		}
	}
}
