package ship_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"cfdclean/internal/cluster/ship"
	"cfdclean/internal/relation"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// TestFormatsByteIdentical pins every durable and shipped byte format to
// a digest: the WAL, snapshot and ship digests were recorded at commit
// 45dead9, the last one where each file kind framed its own records, and
// the store's at its format version 5, whose page is the relation's view
// page of 1 024 rows in the snapshot image's row form and whose manifest
// holds the session header. One
// fixed scenario (a seeded relation holding a null and a weighted tuple;
// three batches with a delete, a cell update and a re-insert; two store
// flushes) writes a WAL, a snapshot file, the store's page and manifest
// files and dict.log, and encodes one ship batch frame. (The re-inserted
// tuple once weighed 2, which Insert now refuses; with 0.75 in its place
// the WAL, snapshot, page and batch digests were re-recorded from the
// unchanged encoders. Format version 4 writes a snapshot's cells as ids
// into the strings each chunk carries: the snapshot digest was
// re-recorded, and the WAL's, whose bytes differ from version 3's in the
// header's version byte alone. Store format version 3 moved the pages
// digest with the row form, and the manifest's and dict.log's with the
// version byte and the manifest's geometry; they were re-recorded. Store
// format version 4 moved all three: its one page holds what version 3's
// four did, and its manifest names no page size. Format version 5 — wal
// and store alike — moved every digest but the ship batch's: the WAL's,
// the pages' and dict.log's in their header's version byte alone (each
// file stamped back to version 4 hashes to the version-4 digest); the
// snapshot's with the header record's four dropped bytes (a workers
// count, a quota flag, the store kind and its generation); and the
// manifest's with the session header it now holds in place of the
// arity. WAL format version 6 moved the WAL's and the ship batch's, and
// no other: a WAL record, and a shipped frame's, lists the strings it is
// the first of its scope to use and writes every value as a cell naming
// one — the scope is the WAL file, whose header now carries version 6,
// and a frame's one record, whose kind byte is now 3.) A
// digest that moves means a format changed: bump
// the format's version, then re-record. A shipped snapshot has no digest of its own: the body
// HTTPTransport sends must equal the snapshot file's bytes.
func TestFormatsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sch, err := relation.NewSchema("r", "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(sch)
	st, err := store.Create(filepath.Join(dir, "store"), sch.Arity(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Attach(rel, true)
	// header is the session header at the relation's current marks: what
	// a flush's manifest records and what the snapshot file opens with.
	header := func() *wal.Snapshot {
		return &wal.Snapshot{
			Name: "formats", Relname: sch.Name(), Attrs: sch.Attrs(),
			CFDs:     "cfd phi: [a] -> [b]\n(_ || _)\n",
			Ordering: 1, K: 2, NearestK: 3,
			Batches: 3, Inserted: 304, Deleted: 2, Changes: 5, Cost: 1.5,
			NextID: rel.NextID(), Version: rel.Version(),
			Quota: wal.Quota{OpsPerSec: 10, TuplesPerSec: 100.5, MaxRelationSize: 1000, MaxSubscribers: 4},
		}
	}
	flush := func(gen uint64) {
		t.Helper()
		if err := st.BeginFlush(header(), rel.Pin()).Commit(gen); err != nil {
			t.Fatal(err)
		}
	}

	weighted := relation.NewTuple(0, "x", "y", "z")
	weighted.SetWeight(1, 0.25)
	rel.MustInsert(weighted)
	rel.MustInsert(&relation.Tuple{Vals: []relation.Value{relation.S("a"), relation.NullValue, relation.S("c")}})
	for i := 0; i < 300; i++ { // one page
		if _, err := rel.InsertRow("k"+strconv.Itoa(i%7), "v", "w"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	flush(0)

	// Three batches, each the journal's own deltas for its mutations.
	var ops []relation.Delta
	defer rel.Subscribe(func(d relation.Delta) { ops = append(ops, d) })()
	log, err := wal.Create(filepath.Join(dir, "wal-0000000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	var batches []*wal.Batch
	batch := func(mutate func()) {
		t.Helper()
		b := &wal.Batch{PrevVersion: rel.Version()}
		ops = nil
		mutate()
		b.Version, b.Ops = rel.Version(), ops
		if _, err := log.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	batch(func() {
		rel.Delete(2)
		rel.Delete(150)
	})
	batch(func() {
		if _, err := rel.Set(1, 0, relation.S("x2")); err != nil {
			t.Fatal(err)
		}
		if _, err := rel.Set(40, 2, relation.NullValue); err != nil {
			t.Fatal(err)
		}
	})
	batch(func() {
		again := relation.NewTuple(0, "a", "b2", "c")
		again.SetWeight(0, 0.5)
		again.SetWeight(2, 0.75)
		rel.MustInsert(again)
		if _, err := rel.InsertRow("new", "row", "!"); err != nil {
			t.Fatal(err)
		}
	})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	flush(1)

	snap := header()
	for _, tp := range rel.Tuples() {
		snap.Tuples = append(snap.Tuples, wal.SnapTuple{ID: tp.ID, Vals: tp.Vals, W: tp.W})
	}
	imagePath := filepath.Join(dir, "snap-0000000000.snap")
	if err := wal.WriteSnapshotFile(imagePath, snap); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(imagePath)
	if err != nil {
		t.Fatal(err)
	}
	var shipped []byte
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		shipped, _ = io.ReadAll(req.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer peer.Close()
	if err := (&ship.HTTPTransport{Base: peer.URL}).ShipSnapshot("formats", snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shipped, file) {
		t.Errorf("shipped snapshot (%d bytes) differs from the snapshot file (%d bytes)", len(shipped), len(file))
	}

	// digest hashes the named files' names and contents, in name order.
	digest := func(pattern string) string {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(paths) == 0 {
			t.Fatalf("glob %s: %v, %v", pattern, paths, err)
		}
		sort.Strings(paths)
		h := sha256.New()
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(b))
			h.Write(b)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	got := map[string]string{
		"wal":        digest("wal-*.log"),
		"snapshot":   digest("snap-*.snap"),
		"pages":      digest("store/pages-*.dat"),
		"manifest":   digest("store/manifest-*.mft"),
		"dict":       digest("store/dict.log"),
		"ship batch": fmt.Sprintf("%x", sha256.Sum256(ship.EncodeBatchFrame(batches[2]))),
	}
	want := map[string]string{
		"wal":        "1d4f04596a14cc5fccd736e2fff2f0a739c84dc7616d0f0378f3eab5d00a2e32",
		"snapshot":   "7e17cf47d76608c5691b8254b8cbb0ec08b634768677d9f786e40b04a77fa4e0",
		"pages":      "a0f541a4f0e219d5127b4b8d350841561bcc8cd794fa5851558a039908f8c9aa",
		"manifest":   "9a4b5017c2f0dbaa7e8acd829aa6771967175b704e709f5dc352e3a17b2a61c5",
		"dict":       "3ebc2ab54d615acf4cd8191f539c3c5b110958a4517e1a19704c89e52ec302f8",
		"ship batch": "d8634e432505c01995b2fcdf8630b8664c189bac80702932e775a8f691181e79",
	}
	for kind, g := range got {
		if g != want[kind] {
			t.Errorf("%s bytes changed: sha256 %s, recorded %s", kind, g, want[kind])
		}
	}
}
