package store

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
	width := 2 + 8 + 4*arity + 8*arity
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
	if err := d.BeginFlush(rel.Pin(), rel.Size()).Commit(0); err != nil {
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
