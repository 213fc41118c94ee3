package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"cfdclean/internal/gen"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

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

// TestInstallCostsOneChunk is increpair's TestSnapshotCostsOneChunk for
// the service's end that restores a snapshot stream: InstallReplica from
// a PUT body, behind the install bound's reader as the handler hands it
// over. What it allocates beyond a restore from rows already in memory,
// at 2 000 and at 20 000 generated tuples, must be within one chunk
// record — the 20 000-tuple image's first, 4 096 rows — of each other: it
// holds no more than one chunk of the image, whatever its size.
func TestInstallCostsOneChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a 20 000-tuple session")
	}
	ds, err := gen.New(gen.Config{Size: 20200, NoiseRate: 0.08, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const name = "c"
	var install [2]uint64
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
		t.Logf("%d tuples: in memory %d B, install %d B", n, inMemory, installed)
	}
	t.Logf("one chunk %d B; InstallReplica beyond the rows %d and %d B", chunk, install[0], install[1])
	if install[1] > install[0]+uint64(chunk) {
		t.Errorf("InstallReplica allocates %d B beyond the rows at 20 000 tuples, %d B at 2 000: more than one chunk (%d B) apart", install[1], install[0], chunk)
	}
}
