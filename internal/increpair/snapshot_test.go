package increpair

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cfdclean/internal/relation"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// snapshotSession opens a session over the first n clean tuples of c
// (which holds at least n+150). With mixed set, every third tuple is
// weighted, every seventh has a null cell, and a batch of deletes, cell
// updates (one to null) and dirty inserts has run, so the physical order
// is no longer id order.
func snapshotSession(t testing.TB, c *genChurn, n int, mixed bool) *Session {
	t.Helper()
	d := relation.New(c.ds.Schema)
	for i, tu := range c.ds.Opt.Tuples()[:n] {
		tu = tu.Clone()
		if mixed && i%3 == 0 {
			for a := range tu.Vals {
				tu.SetWeight(a, float64(a%4)/4)
			}
		}
		if mixed && i%7 == 0 {
			tu.Vals[i%len(tu.Vals)] = relation.NullValue
		}
		d.MustInsert(tu)
	}
	c.next = n
	sess, err := NewSession(d, c.ds.Sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mixed {
		dels, sets, ins := c.batch(sess, 150, 120, 60)
		sets = append(sets, SetOp{ID: sess.Current().Tuples()[n/2].ID, Attr: 1, Value: relation.NullValue})
		if _, _, err := sess.ApplyOps(dels, sets, ins); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func persisted(t testing.TB, sess *Session) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := sess.Persist("s", &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// frameEnds returns the offset where each record of a snapshot stream
// ends, the header record's first.
func frameEnds(t testing.TB, img []byte) []int {
	t.Helper()
	r := bytes.NewReader(img[len("CFDSNAP")+1:])
	var ends []int
	for {
		if _, err := wal.ReadFrame(r, len(img)); err == io.EOF {
			return ends
		} else if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(img)-r.Len())
	}
}

// TestPersistEqualsSnapshotCopy: Persist, writing from the live relation,
// writes the bytes WriteSnapshot writes for the session's PersistSnapshot
// copy — across deletes, cell updates, nulls, weighted and unweighted
// tuples and a second chunk — and the restored session persists to them
// again and dumps the same rows.
func TestPersistEqualsSnapshotCopy(t *testing.T) {
	sess := snapshotSession(t, newGenChurn(t, 5200, 11), 5000, true)
	defer sess.Close()
	img := persisted(t, sess)
	snap, err := sess.PersistSnapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	var nulls, weighted int
	for _, st := range snap.Tuples {
		if st.W != nil {
			weighted++
		}
		for _, v := range st.Vals {
			if v.Null {
				nulls++
			}
		}
	}
	if chunks := len(frameEnds(t, img)) - 1; chunks < 2 || nulls == 0 || weighted == 0 || weighted == len(snap.Tuples) {
		t.Fatalf("the image covers too little: %d chunks, %d null cells, %d of %d tuples weighted", chunks, nulls, weighted, len(snap.Tuples))
	}
	var copied bytes.Buffer
	if err := wal.WriteSnapshot(&copied, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, copied.Bytes()) {
		t.Fatalf("Persist wrote %d bytes, WriteSnapshot of the copy %d, and they differ", len(img), copied.Len())
	}

	back, err := RestoreSession(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if again := persisted(t, back); !bytes.Equal(img, again) {
		t.Fatal("the restored session persists to other bytes")
	}
	var want, got bytes.Buffer
	if err := sess.Dump(&want); err != nil {
		t.Fatal(err)
	}
	if err := back.Dump(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("the restored session dumps other rows")
	}
}

// TestRestoreRefusesDamagedStream: a stream cut at any record boundary or
// inside a record, or with a byte flipped in any record, restores to an
// error and no session.
func TestRestoreRefusesDamagedStream(t *testing.T) {
	sess := snapshotSession(t, newGenChurn(t, 5200, 11), 5000, true)
	defer sess.Close()
	img := persisted(t, sess)
	ends := frameEnds(t, img)
	start := len("CFDSNAP") + 1
	for _, end := range ends {
		for name, b := range map[string][]byte{
			"cut at the record's start": img[:start],
			"cut inside the record":     img[:(start+end)/2],
			"byte flipped":              append(append(append([]byte(nil), img[:end-1]...), img[end-1]^0x40), img[end:]...),
		} {
			if back, err := RestoreSession(bytes.NewReader(b)); err == nil || back != nil {
				t.Errorf("record ending at %d, %s: session %v, err %v", end, name, back != nil, err)
			}
		}
		start = end
	}
	if back, err := RestoreSession(bytes.NewReader(append(append([]byte(nil), img...), 0))); err == nil || back != nil {
		t.Errorf("a byte behind the last chunk: session %v, err %v", back != nil, err)
	}
}

// TestRestoreRefusesPagedHeader: the slim header of a store-backed
// session (StorePaged) carries no rows; restoring it from the stream
// alone would yield an empty relation at the header's version, so both
// inline restores refuse it, naming the store kind.
func TestRestoreRefusesPagedHeader(t *testing.T) {
	sess := snapshotSession(t, newGenChurn(t, 200, 11), 16, false)
	defer sess.Close()
	st, err := store.Create(filepath.Join(t.TempDir(), "store"), len(sess.Current().Schema().Attrs()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := sess.AttachStore(st, true); err != nil {
		t.Fatal(err)
	}
	snap, fl, err := sess.PersistBoundary("s")
	if err != nil {
		t.Fatal(err)
	}
	fl.Abort()
	var img bytes.Buffer
	if err := wal.WriteSnapshot(&img, snap); err != nil {
		t.Fatal(err)
	}
	for name, restore := range map[string]func() (*Session, error){
		"RestoreSession":      func() (*Session, error) { return RestoreSession(bytes.NewReader(img.Bytes())) },
		"RestoreFromSnapshot": func() (*Session, error) { return RestoreFromSnapshot(snap, 0) },
	} {
		back, err := restore()
		if err == nil {
			t.Errorf("%s: restored the paged header of a 16-tuple session as %d tuples at version %d", name, back.Snapshot().Size, back.Snapshot().Version)
			back.Close()
		} else if !strings.Contains(err.Error(), "store kind 1") {
			t.Errorf("%s: the refusal does not name the store kind: %v", name, err)
		}
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

// freshRows is a TupleSource that hands out a snapshot's rows each in
// storage of its own — values, constants and weights — as a decoder must:
// what a restore from rows already in memory allocates is the relation
// and the engine, and a restore from a stream allocates that plus what
// reading the stream costs.
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

// TestSnapshotCostsOneChunk: Persist of a 2 000- and of a 20 000-tuple
// session allocate within one chunk's bytes of each other, and so does
// what RestoreSession allocates beyond a restore from rows already in
// memory: neither end holds more than one chunk, whatever the relation's
// size. One chunk is the 20 000-tuple image's first chunk record, 4 096
// rows. Both sessions hold the same Σ, so their header records differ in
// the counts alone.
func TestSnapshotCostsOneChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a 20 000-tuple session")
	}
	c := newGenChurn(t, 20200, 11)
	var persist, restore [2]uint64
	var chunk int
	for i, n := range []int{2000, 20000} {
		sess := snapshotSession(t, c, n, false)
		img := persisted(t, sess) // formats Σ once, before the measured call
		persist[i] = allocated(func() {
			if err := sess.Persist("s", io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		sess.Close()
		if ends := frameEnds(t, img); n == 20000 {
			chunk = ends[1] - ends[0]
		}

		var back *Session
		var err error
		streamed := allocated(func() { back, err = RestoreSession(bytes.NewReader(img)) })
		if err != nil {
			t.Fatal(err)
		}
		back.Close()
		snap, err := wal.ReadSnapshot(bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		rows := &freshRows{ts: snap.Tuples}
		snap.Tuples = nil
		inMemory := allocated(func() { back, err = RestoreFromSnapshotSource(snap, rows, nil) })
		if err != nil {
			t.Fatal(err)
		}
		back.Close()
		restore[i] = streamed - min(streamed, inMemory)
	}
	t.Logf("one chunk %d B; Persist %d and %d B; RestoreSession beyond the rows %d and %d B", chunk, persist[0], persist[1], restore[0], restore[1])
	for _, c := range []struct {
		name string
		b    [2]uint64
	}{{"Persist", persist}, {"RestoreSession", restore}} {
		if c.b[1] > c.b[0]+uint64(chunk) {
			t.Errorf("%s allocates %d B at 20 000 tuples, %d B at 2 000: more than one chunk (%d B) apart", c.name, c.b[1], c.b[0], chunk)
		}
	}
}

// BenchmarkPersist is increpair.snapshot_ms's in-package cell: Persist
// of an 11 000-tuple generated session to io.Discard, after the first
// Persist has formatted Σ.
func BenchmarkPersist(b *testing.B) {
	sess := snapshotSession(b, newGenChurn(b, 11200, 11), 11000, true)
	defer sess.Close()
	persisted(b, sess)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Persist("s", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreSession is increpair.restore_ms's in-package cell:
// RestoreSession of that session's image, detection pass included.
func BenchmarkRestoreSession(b *testing.B) {
	sess := snapshotSession(b, newGenChurn(b, 11200, 11), 11000, true)
	img := persisted(b, sess)
	sess.Close()
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := RestoreSession(bytes.NewReader(img))
		if err != nil {
			b.Fatal(err)
		}
		back.Close()
	}
}
