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
// the store's at its format version 2, which files rows by position. One
// fixed scenario (a seeded relation holding a null and a weighted tuple;
// three batches with a delete, a cell update and a re-insert; two store
// flushes) writes a WAL, a snapshot file, the store's page and manifest
// files and dict.log, and encodes one ship batch frame. (The re-inserted
// tuple once weighed 2, which Insert now refuses; with 0.75 in its place
// the WAL, snapshot, page and batch digests were re-recorded from the
// unchanged encoders.) A digest that moves means a format changed: bump
// the format's version, then re-record. A shipped snapshot has no digest of its own: the body
// HTTPTransport sends must equal the snapshot file's bytes.
func TestFormatsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sch, err := relation.NewSchema("r", "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(sch)
	st, err := store.Create(filepath.Join(dir, "store"), sch.Arity(), store.Options{PageSize: store.MinPageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Attach(rel)
	flush := func(gen uint64) {
		t.Helper()
		if err := st.BeginFlush(rel.Pin()).Commit(gen); err != nil {
			t.Fatal(err)
		}
	}

	weighted := relation.NewTuple(0, "x", "y", "z")
	weighted.SetWeight(1, 0.25)
	rel.MustInsert(weighted)
	rel.MustInsert(&relation.Tuple{Vals: []relation.Value{relation.S("a"), relation.NullValue, relation.S("c")}})
	for i := 0; i < 300; i++ { // four pages of 91 rows
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
		if err := log.Append(b.Encode()); err != nil {
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

	snap := &wal.Snapshot{
		Name: "formats", Relname: sch.Name(), Attrs: sch.Attrs(),
		CFDs:     "cfd phi: [a] -> [b]\n(_ || _)\n",
		Ordering: 1, K: 2, NearestK: 3, Workers: 4,
		Batches: 3, Inserted: 304, Deleted: 2, Changes: 5, Cost: 1.5,
		NextID: rel.NextID(), Version: rel.Version(),
		Quota: wal.Quota{Set: true, OpsPerSec: 10, TuplesPerSec: 100.5, MaxRelationSize: 1000, MaxSubscribers: 4},
	}
	for _, tp := range rel.Tuples() {
		snap.Tuples = append(snap.Tuples, wal.SnapTuple{ID: tp.ID, Vals: tp.Vals, W: tp.W})
	}
	snapPath := filepath.Join(dir, "snap-0000000000.snap")
	if err := wal.WriteSnapshotFile(snapPath, snap); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(snapPath)
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
		"wal":        "85f653d0a39b52497ca5d3f8d1aa8e2d13d6f12b3b60514c08055dc4e14587f5",
		"snapshot":   "a6821a6bb977449ae2a0be085b4550ef0d686e801677b5dc1ee9a8a0d2ae984a",
		"pages":      "13c5a5c3120620d7fa0b31101f9844b9b5fa2ec62e428a1c40b9b457d6710307",
		"manifest":   "303b18d90235edf540869593fa10f89c970ad70911cd6a0670f13845ff6bda5c",
		"dict":       "88a9450faa541b8c77a37217c42915d4fc16f9538d9bd9f4fd693cbb6e6b8c83",
		"ship batch": "a34aefc6a3c97de79f8eb179b74ee0f0d5ae71bd7f2db989b581337ea06539a8",
	}
	for kind, g := range got {
		if g != want[kind] {
			t.Errorf("%s bytes changed: sha256 %s, recorded %s", kind, g, want[kind])
		}
	}
}
