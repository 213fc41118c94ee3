package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

// FuzzDecodeManifest holds the manifest decoder — what recovery reads
// first of a page-store generation — to its contract. The fuzzer writes
// the header's version byte and the record's payload, and the test frames
// them with a valid checksum so the bytes reach the decoder behind the
// frame; the payload is also decoded raw, as a whole file. decodeManifest
// never panics, and whatever it accepts encodes to a manifest that
// decodes to the same geometry, page table, dictionary length and row
// count, and encodes again to the same bytes. The seeds stamp a real
// manifest with this build's store version and with each version of the
// wal package's refusal table (compat_test.go).
func FuzzDecodeManifest(f *testing.F) {
	arity := 3
	width := rowWidth(arity)
	seed := encodeManifest(manifestGeom{arity, width, 64, 64 * width},
		map[uint64]pageLoc{0: {0, 8}, 1: {1, 8}, 7: {1, 8 + 8 + 64*int64(width)}}, 12, 300)
	if _, _, _, _, err := decodeManifest(seed); err != nil {
		f.Fatal(err)
	}
	_, payload, _ := bytes.Cut(seed, []byte(manifestMagic))
	payload = payload[1+8:] // version byte, record length and checksum
	for _, ver := range []byte{storeVersion, 1, 2, 99} {
		f.Add(ver, payload)
	}
	f.Add(byte(storeVersion), seed)
	f.Fuzz(func(t *testing.T, ver byte, payload []byte) {
		decodeManifest(payload)
		b := wal.AppendFrame(wal.AppendHeader(nil, manifestMagic, ver), payload)
		geom, table, dictLen, rows, err := decodeManifest(b)
		if err != nil {
			return
		}
		enc := encodeManifest(geom, table, dictLen, rows)
		geom2, table2, dictLen2, rows2, err := decodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if geom2 != geom || !maps.Equal(table2, table) || dictLen2 != dictLen || rows2 != rows {
			t.Fatalf("manifest changed across a round trip: %+v %d %d → %+v %d %d", geom, dictLen, rows, geom2, dictLen2, rows2)
		}
		if !bytes.Equal(encodeManifest(geom2, table2, dictLen2, rows2), enc) {
			t.Fatal("manifest encoding is not a fixed point")
		}
	})
}

// FuzzOpenDict holds the dict.log reader — the one store file whose
// entries carry no frame or checksum — to its contract. The fuzzer writes
// the entries behind a valid header and the entry count a manifest would
// claim. openDict never panics and never sizes an allocation by a length
// the file cannot hold; whatever it accepts is exactly n entries, the
// file is truncated to exactly where they end, and opening the truncated
// file again reads the same entries.
// The seeds are a real store's dict.log, with the count it was committed
// at, one past it, and its first length raised to 1 TiB, and a length
// spelled in more bytes than it needs.
func FuzzOpenDict(f *testing.F) {
	dir := f.TempDir()
	rel := testRelation(f)
	d, err := Create(dir, 3, Options{})
	if err != nil {
		f.Fatal(err)
	}
	d.Attach(rel)
	for _, vals := range [][]string{{"212", "NYC", ""}, {"Ünïcödé", strings.Repeat("x", 300), "a,b"}} {
		rel.MustInsert(relation.NewTuple(0, vals...))
	}
	if err := d.BeginFlush(rel.Pin()).Commit(0); err != nil {
		f.Fatal(err)
	}
	n := d.Stats().DictEntries
	d.Close()
	b, err := os.ReadFile(filepath.Join(dir, dictName))
	if err != nil {
		f.Fatal(err)
	}
	hdr := len(dictMagic) + 1
	entries := b[hdr:]
	_, first := binary.Uvarint(entries)
	f.Add(uint16(n), entries)
	f.Add(uint16(n+1), entries)
	f.Add(uint16(n), append(binary.AppendUvarint(nil, 1<<40), entries[first:]...))
	f.Add(uint16(2), []byte{0, 0x80, 0}) // two empty entries, the second's length not minimal

	f.Fuzz(func(t *testing.T, n uint16, entries []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, dictName)
		file := append(wal.AppendHeader(nil, dictMagic, storeVersion), entries...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		d := newDisk(dir, 3, MinPageSize)
		if err := d.openDict(int(n)); err != nil {
			return
		}
		strs := d.strs
		d.Close()
		if len(strs) != int(n) {
			t.Fatalf("accepted %d entries, want %d", len(strs), n)
		}
		got, err := os.ReadFile(path)
		if err != nil || int64(len(got)) != d.dictOff || !bytes.Equal(got, file[:len(got)]) {
			t.Fatalf("dict.log after open is %d bytes, append offset %d: not a prefix ending there (%v)", len(got), d.dictOff, err)
		}
		// What is kept is exactly the n entries, decoded independently.
		rest := got[hdr:]
		for i, want := range strs {
			ln, k := binary.Uvarint(rest)
			if k <= 0 || uint64(len(rest)-k) < ln || string(rest[k:k+int(ln)]) != want {
				t.Fatalf("entry %d of the kept bytes does not decode to %q", i, want)
			}
			rest = rest[k+int(ln):]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes kept past the %d entries", len(rest), n)
		}
		again := newDisk(dir, 3, MinPageSize)
		if err := again.openDict(int(n)); err != nil || !slices.Equal(again.strs, strs) {
			t.Fatalf("reopening the truncated dict.log: %v", err)
		}
		again.Close()
	})
}

// FuzzStoreSource holds the page reader — what recovery streams a
// relation back through — to its contract. The seed store holds nulls,
// weights and a delete; the fuzzer rewrites its newest pages file and the
// row count of its newest manifest. With raw set the bytes are the whole
// pages file (the seeds: a torn record, a version-1 header); otherwise they overwrite the start of the newest page image,
// which the test frames with a valid checksum so the rows reach the
// decoder. Open and Source then end in rows or in an error that wraps
// corrupt, and never panic or yield an id ≤ 0 or a value that is not in
// the dictionary.
func FuzzStoreSource(f *testing.F) {
	dir := f.TempDir()
	rel := testRelation(f)
	d, err := Create(dir, 3, Options{PageSize: MinPageSize})
	if err != nil {
		f.Fatal(err)
	}
	d.Attach(rel)
	for i := range 100 {
		tu := relation.NewTuple(0, "a"+strconv.Itoa(i%7), "b", strconv.Itoa(i))
		if i%5 == 0 {
			tu.Vals[1] = relation.NullValue
		}
		if i%3 == 0 {
			tu.SetWeight(2, 0.5)
		}
		rel.MustInsert(tu)
	}
	if err := d.BeginFlush(rel.Pin()).Commit(0); err != nil {
		f.Fatal(err)
	}
	rel.Delete(3)
	if _, err := rel.Set(50, 0, relation.S("set")); err != nil {
		f.Fatal(err)
	}
	if err := d.BeginFlush(rel.Pin()).Commit(1); err != nil {
		f.Fatal(err)
	}
	d.Close()
	files := map[string][]byte{}
	for _, name := range []string{dictName, pagesName(0), pagesName(1), manifestName(0), manifestName(1)} {
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			f.Fatal(err)
		}
	}
	geom, table, dictLen, rows, err := decodeManifest(files[manifestName(1)])
	if err != nil {
		f.Fatal(err)
	}
	// The newest pages file holds the pages the delete and the Set wrote;
	// the page at the smallest offset is the one the fuzzer overwrites.
	var no uint64
	var off int64 = math.MaxInt64
	for n, loc := range table {
		if loc.gen == 1 && loc.off < off {
			no, off = n, loc.off
		}
	}
	newest := files[pagesName(1)]
	image := newest[off+8+8:][:geom.pageBytes]
	f.Add(uint16(rows), false, image[:3*geom.rowWidth])
	f.Add(uint16(rows+1), false, []byte{})
	f.Add(uint16(geom.rowsPerPage+1), false, []byte{})
	f.Add(uint16(rows), false, []byte{2})                                     // weight flag 2
	f.Add(uint16(rows), false, make([]byte, geom.rowWidth))                   // id 0
	f.Add(uint16(rows), false, []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // value id past the dictionary
	// Whole files stay short: the fuzzer minimizes what it finds by
	// re-running the target byte by byte.
	hdr := len(pageMagic) + 1
	f.Add(uint16(rows), true, newest[:hdr+8+8+64])
	f.Add(uint16(rows), true, wal.AppendHeader(nil, pageMagic, 1))

	f.Fuzz(func(t *testing.T, n uint16, raw bool, b []byte) {
		dir := t.TempDir()
		for name, data := range files {
			switch name {
			case manifestName(1):
				data = encodeManifest(geom, table, dictLen, int(n))
			case pagesName(1):
				if raw {
					data = b
					break
				}
				page := slices.Clone(image)
				copy(page, b)
				data = slices.Clone(newest)
				copy(data[off:], wal.AppendFrame(binary.LittleEndian.AppendUint64(nil, no), page))
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		corrupt := func(err error) {
			t.Helper()
			if !errors.Is(err, errCorrupt) && !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("error does not wrap corrupt: %v", err)
			}
		}
		d, err := Open(dir, 1, 3, Options{})
		if err != nil {
			corrupt(err)
			return
		}
		defer d.Close()
		dict := map[string]bool{}
		for _, s := range d.Strings() {
			dict[s] = true
		}
		it, err := d.Source()
		if err != nil {
			corrupt(err)
			return
		}
		for got := 0; ; got++ {
			st, ok, err := it.Next()
			if err != nil {
				corrupt(err)
				return
			}
			if !ok {
				if got != int(n) {
					t.Fatalf("streamed %d rows of %d", got, n)
				}
				return
			}
			if st.ID <= 0 {
				t.Fatalf("row %d has id %d", got, st.ID)
			}
			for _, v := range st.Vals {
				if !v.Null && !dict[v.Str] {
					t.Fatalf("row %d holds %q, which is not in the dictionary", got, v.Str)
				}
			}
		}
	})
}
