package wal

import (
	"bytes"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLogKeepsLongRecord: a record of 256 MiB + 1 byte survives a reopen,
// and so do the records after it. A record's only bound is the length its
// u32 header can state.
func TestLogKeepsLongRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and reads back a 256 MiB record")
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 1<<28+1)
	long[0], long[len(long)-1] = 'L', 'L'
	longCRC := crc32.ChecksumIEEE(long)
	for _, p := range [][]byte{[]byte("before!"), long, []byte("after!!")} {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	long = nil
	runtime.GC()

	l, got, discarded, err := openFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != 3 || discarded != 0 {
		t.Fatalf("reopen: %d records, %d bytes discarded; want 3 and 0", len(got), discarded)
	}
	if string(got[0]) != "before!" || string(got[2]) != "after!!" ||
		len(got[1]) != 1<<28+1 || crc32.ChecksumIEEE(got[1]) != longCRC {
		t.Fatalf("reopen returned other records: %q, %d bytes, %q", got[0], len(got[1]), got[2])
	}
}

// TestCheckPayloadBound: the WAL and snapshot writers refuse a payload the
// u32 length cannot state rather than frame it with a wrapped length.
func TestCheckPayloadBound(t *testing.T) {
	if err := checkPayload(maxPayload); err != nil {
		t.Fatalf("payload of maxPayload bytes refused: %v", err)
	}
	if n := maxPayload; n < math.MaxInt {
		if err := checkPayload(n + 1); err == nil {
			t.Fatal("payload one byte over maxPayload accepted")
		}
	}
	if !bytes.Equal(AppendFrame(nil, nil), []byte{0, 0, 0, 0, 0, 0, 0, 0}) {
		t.Fatal("empty record is not an 8-byte zero header")
	}
}
