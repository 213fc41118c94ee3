package increpair

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfdclean/internal/cfd"
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
// image — across deletes, cell updates, nulls, weighted and unweighted
// tuples and a second chunk — and the restored session persists to them
// again and dumps the same rows. A quota stamped into the image after
// the capture, as the service stamps its own, lands in the header record
// Stream renders, and every other byte stays Persist's.
func TestPersistEqualsSnapshotCopy(t *testing.T) {
	sess := snapshotSession(t, newGenChurn(t, 5200, 11), 5000, true)
	defer sess.Close()
	img := persisted(t, sess)
	var nulls, weighted int
	live := sess.Current().Tuples()
	for _, tu := range live {
		if tu.W != nil {
			weighted++
		}
		for _, v := range tu.Vals {
			if v.Null {
				nulls++
			}
		}
	}
	ends := frameEnds(t, img)
	if chunks := len(ends) - 1; chunks < 2 || nulls == 0 || weighted == 0 || weighted == len(live) {
		t.Fatalf("the image covers too little: %d chunks, %d null cells, %d of %d tuples weighted", chunks, nulls, weighted, len(live))
	}
	snap, err := sess.PersistSnapshot("s")
	if err != nil {
		t.Fatal(err)
	}
	var copied bytes.Buffer
	if err := wal.WriteSnapshot(&copied, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, copied.Bytes()) {
		t.Fatalf("Persist wrote %d bytes, WriteSnapshot of the image %d, and they differ", len(img), copied.Len())
	}

	snap.Quota = wal.Quota{OpsPerSec: 2.5, TuplesPerSec: 40, MaxRelationSize: 9000, MaxSubscribers: 3}
	head, _, err := wal.NewSnapshotReader(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	head.Quota = snap.Quota
	want := wal.AppendFrame(wal.AppendHeader(nil, "CFDSNAP", wal.Version), wal.AppendSnapshotHeader(nil, head, len(live)))
	want = append(want, img[ends[0]:]...)
	stream, n, err := snap.Stream()
	if err != nil {
		t.Fatal(err)
	}
	stamped, err := io.ReadAll(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stamped, want) || int64(len(stamped)) != n {
		t.Fatalf("the image with a quota stamped in streams %d bytes (%d announced), want Persist's %d with the quota in its header", len(stamped), n, len(want))
	}

	back, err := RestoreSession(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if again := persisted(t, back); !bytes.Equal(img, again) {
		t.Fatal("the restored session persists to other bytes")
	}
	var wantDump, gotDump bytes.Buffer
	if err := sess.Dump(&wantDump); err != nil {
		t.Fatal(err)
	}
	if err := back.Dump(&gotDump); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantDump.Bytes(), gotDump.Bytes()) {
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

// TestBoundaryHeaderIsTheImageHeader: the header PersistBoundary
// captures, which a page-store manifest records and recovery restores
// from, holds the fields the session's stream image opens with: the
// manifest and the image describe one session the same way.
func TestBoundaryHeaderIsTheImageHeader(t *testing.T) {
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
	if err := sess.Persist("s", &img); err != nil {
		t.Fatal(err)
	}
	want, _, err := wal.NewSnapshotReader(&img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("PersistBoundary's header\n%+v\nthe image's\n%+v", snap, want)
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

// freshRows is a TupleSource that hands out an image's rows each in
// storage of its own — ids and weights — as a decoder must: what a
// restore from rows already in memory allocates is the relation and the
// engine, and a restore from a stream allocates that plus what reading
// the stream costs.
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
	var w []float64
	if t.W != nil {
		w = append([]float64(nil), t.W...)
	}
	return wal.SnapTuple{ID: t.ID, W: w, IDs: append([]relation.ValueID(nil), t.IDs...)}, true, nil
}

// idRows reads a snapshot image whole: its header, its rows and the
// constants its rows' ids name, in id order.
func idRows(t testing.TB, img []byte) (*wal.Snapshot, []wal.SnapTuple, []string) {
	t.Helper()
	head, rd, err := wal.NewSnapshotReader(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	var rows []wal.SnapTuple
	for {
		st, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return head, rows, rd.Dict().StringsFrom(0, rd.Dict().Len())
		}
		rows = append(rows, st)
	}
}

// TestSnapshotCostsOneChunk: Persist of a 2 000- and of a 20 000-tuple
// session allocate within one chunk's bytes of each other, and so does
// what RestoreSession allocates beyond a restore from the image's id rows
// already in memory (each in storage of its own, the constants interned
// afresh): neither end holds more than one chunk, whatever the
// relation's size. PersistSnapshot, which holds the encoded image,
// allocates at 20 000 tuples no more than at 2 000 plus the larger
// image's extra bytes and one chunk. One chunk is the 20 000-tuple
// image's first chunk record, 4 096 rows. Both sessions hold the same Σ,
// so their header records differ in the counts alone.
func TestSnapshotCostsOneChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a 20 000-tuple session")
	}
	c := newGenChurn(t, 20200, 11)
	var persist, capture, restore [2]uint64
	var size [2]int
	var chunk int
	for i, n := range []int{2000, 20000} {
		sess := snapshotSession(t, c, n, false)
		img := persisted(t, sess) // formats Σ once, before the measured call
		size[i] = len(img)
		persist[i] = allocated(func() {
			if err := sess.Persist("s", io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		var err error
		capture[i] = allocated(func() { _, err = sess.PersistSnapshot("s") })
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
		if ends := frameEnds(t, img); n == 20000 {
			chunk = ends[1] - ends[0]
		}

		var back *Session
		streamed := allocated(func() { back, err = RestoreSession(bytes.NewReader(img)) })
		if err != nil {
			t.Fatal(err)
		}
		back.Close()
		head, rows, strs := idRows(t, img)
		inMemory := allocated(func() {
			dict := relation.NewDict()
			for _, s := range strs {
				dict.InternStr(strings.Clone(s))
			}
			back, err = RestoreFromSnapshotSource(head, &freshRows{ts: rows}, dict)
		})
		if err != nil {
			t.Fatal(err)
		}
		back.Close()
		restore[i] = streamed - min(streamed, inMemory)
	}
	t.Logf("one chunk %d B, images %d and %d B; Persist %d and %d B; PersistSnapshot %d and %d B; RestoreSession beyond the rows %d and %d B",
		chunk, size[0], size[1], persist[0], persist[1], capture[0], capture[1], restore[0], restore[1])
	for _, c := range []struct {
		name string
		b    [2]uint64
	}{{"Persist", persist}, {"RestoreSession", restore}} {
		if c.b[1] > c.b[0]+uint64(chunk) {
			t.Errorf("%s allocates %d B at 20 000 tuples, %d B at 2 000: more than one chunk (%d B) apart", c.name, c.b[1], c.b[0], chunk)
		}
	}
	if extra := uint64(size[1] - size[0]); capture[1] > capture[0]+extra+uint64(chunk) {
		t.Errorf("PersistSnapshot allocates %d B at 20 000 tuples, %d B at 2 000: more than the image's %d extra bytes and one chunk (%d B) apart", capture[1], capture[0], extra, chunk)
	}
}

// BenchmarkShipCapture is the follower image's capture, what a bootstrap
// or a resync ships: PersistSnapshot and WriteSnapshot of it to
// io.Discard, on a 20 000-tuple generated session (a third of its tuples
// weighted), after a first Persist has formatted Σ. It reports the
// image's bytes per tuple.
func BenchmarkShipCapture(b *testing.B) {
	sess := snapshotSession(b, newGenChurn(b, 20200, 11), 20000, true)
	defer sess.Close()
	img := persisted(b, sess)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := sess.PersistSnapshot("s")
		if err == nil {
			err = wal.WriteSnapshot(io.Discard, snap)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(img))/float64(sess.Snapshot().Size), "B/tuple")
}

// BenchmarkPersist is increpair.snapshot_ms's in-package cell: Persist
// of an 11 000-tuple generated session to io.Discard, after the first
// Persist has formatted Σ. It reports the image's bytes per tuple.
func BenchmarkPersist(b *testing.B) {
	sess := snapshotSession(b, newGenChurn(b, 11200, 11), 11000, true)
	defer sess.Close()
	img := persisted(b, sess)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Persist("s", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(img))/float64(sess.Snapshot().Size), "B/tuple")
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

// TestPersistRoundTripAtChunkBoundaries: Persist → RestoreSession →
// Persist writes the same bytes, and the restored session dumps the same
// rows and lists the same violations, at 4 095, 4 096, 4 097 and 8 193
// rows — either side of the first chunk's end, and one row into a third
// chunk. The rows hold nulls, "" beside them, constants that are not
// valid UTF-8, and weighted and unweighted tuples. The churned sessions
// first run deletes and cell updates that orphan values. Every session's
// dictionary holds values no tuple carries (Σ's pattern constants, what
// the initial cleaning and the churn replaced); an image holds each
// distinct live constant once and no dead one, so its strings number
// exactly the live constants.
func TestPersistRoundTripAtChunkBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("opens 8 193-tuple sessions")
	}
	c := newGenChurn(t, 8600, 11)
	for _, n := range []int{4095, 4096, 4097, 8193} {
		for _, churned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d rows, churned %v", n, churned), func(t *testing.T) {
				base := n
				if churned {
					base += 150
				}
				d := relation.New(c.ds.Schema)
				for i, tu := range c.ds.Opt.Tuples()[:base] {
					tu = tu.Clone()
					switch i % 5 {
					case 1:
						tu.Vals[i%len(tu.Vals)] = relation.S("")
					case 2:
						tu.Vals[i%len(tu.Vals)] = relation.NullValue
					case 3:
						tu.Vals[i%len(tu.Vals)] = relation.S("\xff\xfe" + tu.Vals[i%len(tu.Vals)].Str)
					}
					if i%3 == 0 {
						tu.SetWeight(i%len(tu.Vals), 0.25)
					}
					d.MustInsert(tu)
				}
				sess, err := NewSession(d, c.ds.Sigma, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				if churned {
					c.next = base
					dels, sets, _ := c.batch(sess, 0, 150, 120)
					live := sess.Current().Tuples()
					sets = append(sets,
						SetOp{ID: live[0].ID, Attr: 1, Value: relation.NullValue},
						SetOp{ID: live[1].ID, Attr: 1, Value: relation.S("")},
						SetOp{ID: live[2].ID, Attr: 1, Value: relation.S("\xc3\x28")})
					if _, _, err := sess.ApplyOps(dels, sets, nil); err != nil {
						t.Fatal(err)
					}
				}
				if got := sess.Snapshot().Size; got != n {
					t.Fatalf("the session holds %d tuples, want %d", got, n)
				}
				img := persisted(t, sess)
				back, err := RestoreSession(bytes.NewReader(img))
				if err != nil {
					t.Fatal(err)
				}
				defer back.Close()
				if again := persisted(t, back); !bytes.Equal(img, again) {
					t.Fatalf("the restored session persists to %d other bytes than the %d it was restored from", len(again), len(img))
				}
				for what, f := range map[string]func(*Session) string{"dump": dumpOf, "violations": violationsOf} {
					if want, got := f(sess), f(back); want != got {
						t.Fatalf("the restored session's %s differs:\n%s\nwant:\n%s", what, got, want)
					}
				}
				live := map[string]bool{}
				for _, tu := range sess.Current().Tuples() {
					for _, v := range tu.Vals {
						if !v.Null {
							live[v.Str] = true
						}
					}
				}
				if strs, dict := imageStrings(t, img), sess.Current().Dict().Len(); strs != len(live) || dict == len(live) {
					t.Fatalf("the image writes %d strings; the session carries %d distinct constants, its dictionary %d", strs, len(live), dict)
				}
			})
		}
	}
}

// imageStrings returns the number of strings the chunk records of a
// snapshot image carry.
func imageStrings(t *testing.T, img []byte) int {
	t.Helper()
	r := bytes.NewReader(img[len("CFDSNAP")+1:])
	if _, err := wal.ReadFrame(r, len(img)); err != nil { // the header record
		t.Fatal(err)
	}
	n := 0
	for {
		p, err := wal.ReadFrame(r, len(img))
		if err == io.EOF {
			return n
		} else if err != nil {
			t.Fatal(err)
		}
		_, k := binary.Uvarint(p) // the chunk's row count
		strs, _ := binary.Uvarint(p[k:])
		n += int(strs)
	}
}

func dumpOf(s *Session) string {
	var b bytes.Buffer
	if err := s.Dump(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

func violationsOf(s *Session) string {
	v, err := s.ReadView()
	if err != nil {
		return err.Error()
	}
	defer v.Release()
	vs, _ := v.Violations(cfd.AnyVio(), 0, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", v.TotalViolations())
	for _, x := range vs {
		fmt.Fprintf(&b, " %d/%s/%d", x.T, x.N.Name, x.With)
	}
	return b.String()
}

// pinnedDump returns the session's dump read through a ReadView, and the
// view's version.
func pinnedDump(t testing.TB, sess *Session) ([]byte, uint64) {
	t.Helper()
	v, err := sess.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	var b bytes.Buffer
	if err := v.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), v.Version()
}

// requireImageOf fails t unless back, restored from an image, is the
// session at version with dump want, and sess has since moved on.
func requireImageOf(t *testing.T, sess, back *Session, want []byte, version uint64) {
	t.Helper()
	defer back.Close()
	var got, now bytes.Buffer
	if err := back.Dump(&got); err != nil {
		t.Fatal(err)
	}
	if err := sess.Dump(&now); err != nil {
		t.Fatal(err)
	}
	if v := back.Snapshot().Version; v != version || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the image restores to version %d and %d dump bytes, want the pinned version %d and its %d bytes", v, got.Len(), version, len(want))
	}
	if sess.Snapshot().Version == version || bytes.Equal(now.Bytes(), want) {
		t.Fatal("the batch did not change the session; the test shows nothing")
	}
}

// gateWriter buffers what is written to it; its first Write closes
// started and then waits for release to be closed.
type gateWriter struct {
	started, release chan struct{}
	once             sync.Once
	buf              bytes.Buffer
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.started)
		<-g.release
	})
	return g.buf.Write(p)
}

// TestPersistDoesNotBlockWriters: Persist holds the session lock only to
// pin its image, so a batch finishes while Persist's writer is blocked,
// and the stream, once released, restores the session at the pin's
// version, not the batch's.
func TestPersistDoesNotBlockWriters(t *testing.T) {
	c := newGenChurn(t, 5200, 11)
	sess := snapshotSession(t, c, 5000, true)
	defer sess.Close()
	persisted(t, sess) // formats Σ
	want, version := pinnedDump(t, sess)
	dels, sets, ins := c.batch(sess, 60, 150, 120)

	w := &gateWriter{started: make(chan struct{}), release: make(chan struct{})}
	persistErr := make(chan error, 1)
	go func() { persistErr <- sess.Persist("s", w) }()
	<-w.started
	applied := make(chan error, 1)
	go func() {
		_, _, err := sess.ApplyOps(dels, sets, ins)
		applied <- err
	}()
	select {
	case err := <-applied:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(w.release)
		<-applied
		t.Fatal("ApplyOps waited for Persist's blocked writer")
	}
	close(w.release)
	if err := <-persistErr; err != nil {
		t.Fatal(err)
	}
	back, err := RestoreSession(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	requireImageOf(t, sess, back, want, version)
}

// TestPersistSnapshotDoesNotBlockWriters: PersistSnapshot encodes the
// rows from its pinned view after the session lock is released, so a
// batch started once the view is pinned finishes while the encoding of a
// 20 000-tuple session runs, and the image holds the session at the pin's
// version, not the batch's. A batch that happens to finish after the
// encoding shows nothing, so the test tries up to five times.
func TestPersistSnapshotDoesNotBlockWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a 20 000-tuple session")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the batch overlaps the copy only on a second processor")
	}
	c := newGenChurn(t, 20200, 11)
	sess := snapshotSession(t, c, 20000, false)
	defer sess.Close()
	persisted(t, sess) // formats Σ
	for attempt := 0; ; attempt++ {
		want, version := pinnedDump(t, sess)
		dels, sets, ins := c.batch(sess, 10, 10, 10)
		var copying atomic.Bool
		copying.Store(true)
		overlapped := make(chan bool, 1)
		go func() {
			for sess.e.repr.ActiveViews() == 0 && copying.Load() {
				runtime.Gosched()
			}
			if _, _, err := sess.ApplyOps(dels, sets, ins); err != nil {
				t.Error(err)
			}
			overlapped <- copying.Load()
		}()
		snap, err := sess.PersistSnapshot("s")
		copying.Store(false)
		during := <-overlapped
		if err != nil {
			t.Fatal(err)
		}
		back, err := RestoreFromSnapshot(snap, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireImageOf(t, sess, back, want, version)
		if during {
			t.Logf("a batch finished during the encoding at attempt %d", attempt+1)
			return
		}
		if attempt == 4 {
			t.Fatal("in five attempts no batch finished while PersistSnapshot encoded its rows")
		}
	}
}
