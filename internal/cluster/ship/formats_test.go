package ship_test

import (
	"crypto/sha256"
	"fmt"
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
// a digest recorded at commit 45dead9, the last one where each file kind
// framed its own records: one fixed scenario (a seeded relation holding a
// null and a weighted tuple; three batches with a delete, a cell update
// and a re-insert; two store flushes) writes a WAL, a snapshot file, the
// store's page, order and manifest files and dict.log, and encodes one
// ship batch frame and one ship snapshot frame. A digest that moves means
// a format changed: bump the format's version, then re-record.
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
		if err := st.BeginFlush(rel.Pin(), rel.Size()).Commit(gen); err != nil {
			t.Fatal(err)
		}
	}

	weighted := relation.NewTuple(0, "x", "y", "z")
	weighted.SetWeight(1, 0.25)
	rel.MustInsert(weighted)
	rel.MustInsert(&relation.Tuple{Vals: []relation.Value{relation.S("a"), relation.NullValue, relation.S("c")}})
	for i := 0; i < 300; i++ { // four pages of 89 rows
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
		again.SetWeight(2, 2)
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
	if err := wal.WriteSnapshotFile(filepath.Join(dir, "snap-0000000000.snap"), snap); err != nil {
		t.Fatal(err)
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
		"wal":           digest("wal-*.log"),
		"snapshot":      digest("snap-*.snap"),
		"pages":         digest("store/pages-*.dat"),
		"order":         digest("store/order-*.dat"),
		"manifest":      digest("store/manifest-*.mft"),
		"dict":          digest("store/dict.log"),
		"ship batch":    fmt.Sprintf("%x", sha256.Sum256(ship.EncodeBatchFrame(batches[2]))),
		"ship snapshot": fmt.Sprintf("%x", sha256.Sum256(ship.EncodeSnapshotFrame(snap))),
	}
	want := map[string]string{
		"wal":           "b9c5f39119fed1b0581ef191c3fe2d7dd3fb3bb90e81c40cdb2ed80b8447fda1",
		"snapshot":      "09f5e634ec89f239fffd4defbfb7bf89a22ba307032a34d512ae5c81b26f7da3",
		"pages":         "8f310ece427b171d42ea8273374ea4c9a7bfb9bb895ff742cfbcde64077db441",
		"order":         "5291504b120904354838fccdae9574797d7c51fdfdf89a37e446214cc0aa9d98",
		"manifest":      "18af077d1daa1f6842966bbf5ccffd577334e383d553dcada68c6a233c8f0afc",
		"dict":          "2ae2d768d7230fa7a9709c95471b4b6eb63b69507b7962d9f68fc003024fd80a",
		"ship batch":    "57c5c7359036944dabfa13886993f51bf8956d8654ef27b44ef18e2446bbeb8b",
		"ship snapshot": "e910bbada58d899cf49192f576dec912091f52e62ea2b9e9bc4ef59a5fe9d06b",
	}
	for kind, g := range got {
		if g != want[kind] {
			t.Errorf("%s bytes changed: sha256 %s, recorded %s", kind, g, want[kind])
		}
	}
}
