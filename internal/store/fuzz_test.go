package store

import (
	"bytes"
	"maps"
	"testing"

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
