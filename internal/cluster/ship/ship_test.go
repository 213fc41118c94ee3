package ship_test

// Unit tests for the two deterministic substrates of the replication
// layer: the CRC-framed wire codec (a torn or corrupted frame must
// never decode) and the consistent-hash ring (placement must be a pure
// function of the peer set, independent of listing order, with the
// follower always distinct from the primary).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"cfdclean/internal/cluster/ship"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/wal"
)

func sampleBatch(v uint64) *wal.Batch {
	return &wal.Batch{
		PrevVersion: v - 1,
		Version:     v,
		Ops: []relation.Delta{
			{Kind: relation.DeltaInsert, T: relation.NewTuple(7, "212", "1000001", "NYC", "NY", "10012")},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	stream.Write(ship.EncodeBatchFrame(sampleBatch(1)))
	stream.Write(ship.EncodeBatchFrame(sampleBatch(2)))

	rd := bytes.NewReader(stream.Bytes())
	for want := uint64(1); want <= 2; want++ {
		b, err := ship.ReadBatchFrame(rd)
		if err != nil {
			t.Fatalf("batch frame: %v", err)
		}
		if b.Version != want || b.PrevVersion != want-1 || len(b.Ops) != 1 {
			t.Fatalf("batch round-trip: %+v", b)
		}
	}
	if _, err := ship.ReadBatchFrame(rd); !errors.Is(err, io.EOF) {
		t.Fatalf("clean end of stream: %v", err)
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	frame := ship.EncodeBatchFrame(sampleBatch(3))
	cases := map[string][]byte{
		"unknown kind":  append([]byte{0xEE}, frame[1:]...),
		"flipped byte":  flip(frame, len(frame)-1),
		"flipped crc":   flip(frame, 6),
		"torn payload":  frame[:len(frame)-2],
		"torn header":   frame[:4],
		"absurd length": absurdLength(frame),
	}
	for name, dam := range cases {
		if _, err := ship.ReadBatchFrame(bytes.NewReader(dam)); !errors.Is(err, ship.ErrFrame) {
			t.Errorf("%s: want ErrFrame, got %v", name, err)
		}
	}
}

func flip(frame []byte, i int) []byte {
	d := append([]byte(nil), frame...)
	d[i] ^= 0xFF
	return d
}

func absurdLength(frame []byte) []byte {
	d := append([]byte(nil), frame...)
	d[1], d[2], d[3], d[4] = 0xFF, 0xFF, 0xFF, 0x7F
	return d
}

func TestRingPlacement(t *testing.T) {
	peers := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"}
	shuffled := []string{"10.0.0.3:8080", "10.0.0.1:8080", "10.0.0.2:8080"}
	a, b := ship.NewRing(peers), ship.NewRing(shuffled)

	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("session-%d", i)
		p, f := a.Primary(name), a.Follower(name)
		if p2, f2 := b.Primary(name), b.Follower(name); p != p2 || f != f2 {
			t.Fatalf("%s: placement depends on peer listing order (%s/%s vs %s/%s)", name, p, f, p2, f2)
		}
		if p == f {
			t.Fatalf("%s: follower equals primary (%s)", name, p)
		}
		if p == "" || f == "" {
			t.Fatalf("%s: unplaced (%q/%q)", name, p, f)
		}
		counts[p]++
	}
	// Distribution sanity: no peer owns everything or nothing.
	for _, peer := range peers {
		if counts[peer] == 0 || counts[peer] == 200 {
			t.Fatalf("degenerate distribution: %v", counts)
		}
	}
}

func TestRingStabilityUnderMembershipChange(t *testing.T) {
	peers := []string{"n1:8080", "n2:8080", "n3:8080", "n4:8080"}
	full := ship.NewRing(peers)
	reduced := ship.NewRing(peers[:3])

	moved := 0
	const sessions = 400
	for i := 0; i < sessions; i++ {
		name := fmt.Sprintf("s-%d", i)
		was, now := full.Primary(name), reduced.Primary(name)
		if was != "n4:8080" && was != now {
			moved++
		}
	}
	// Consistent hashing: removing one of four peers should strand only
	// a small fraction of the sessions that were NOT on the removed
	// peer. A modulo scheme would move ~2/3 of them.
	if moved > sessions/5 {
		t.Fatalf("membership change moved %d/%d sessions not on the removed peer", moved, sessions)
	}
}

func TestRingSingleAndEmpty(t *testing.T) {
	if r := ship.NewRing(nil); r.Primary("x") != "" || r.Follower("x") != "" {
		t.Fatal("empty ring should place nothing")
	}
	one := ship.NewRing([]string{"solo:1"})
	if one.Primary("x") != "solo:1" {
		t.Fatal("single-peer ring must own everything")
	}
	if one.Follower("x") != "" {
		t.Fatal("single-peer ring has no distinct follower")
	}
}

func TestReplicaRejectsStaleAndGappedBatches(t *testing.T) {
	snap, err := sampleSnapshot(t, "cursor")
	if err != nil {
		t.Fatal(err)
	}
	r := ship.NewReplica("cursor")
	defer r.Close()
	var img bytes.Buffer
	if err := wal.WriteSnapshot(&img, snap); err != nil {
		t.Fatal(err)
	}
	if err := r.Install(&img); err != nil {
		t.Fatal(err)
	}
	base := r.Version()

	// Versions are journal versions, which advance per-op: a twin
	// session (the stand-in for the primary) produces the real bracket.
	twin, err := increpair.RestoreFromSnapshot(snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	rng := rand.New(rand.NewSource(71))
	deletes, sets, inserts := randomOps(rng, twin.Current())
	if _, _, err := twin.ApplyOps(deletes, sets, inserts); err != nil {
		t.Fatal(err)
	}
	good := &wal.Batch{PrevVersion: base, Version: twin.Snapshot().Version,
		Ops: increpair.OpsToDeltas(deletes, sets, inserts)}
	if applied, err := r.ApplyBatch(good); err != nil || !applied {
		t.Fatalf("chained batch: applied=%v err=%v", applied, err)
	}
	cur := r.Version()
	if cur != good.Version {
		t.Fatalf("cursor at %d after applying batch ending at %d", cur, good.Version)
	}
	// Duplicate: idempotent skip, no error, version unchanged.
	if applied, err := r.ApplyBatch(good); err != nil || applied {
		t.Fatalf("duplicate: applied=%v err=%v", applied, err)
	}
	if r.Version() != cur {
		t.Fatalf("duplicate moved the cursor to %d", r.Version())
	}
	// Gap: refused with ErrGap, version unchanged.
	gap := &wal.Batch{PrevVersion: cur + 5, Version: cur + 6}
	if _, err := r.ApplyBatch(gap); !errors.Is(err, ship.ErrGap) {
		t.Fatalf("gap: want ErrGap, got %v", err)
	}
	if r.Version() != cur {
		t.Fatalf("gap moved the cursor to %d", r.Version())
	}
}

// TestReadFrameAllocatesWhatArrives: the length in a frame header comes
// off the network (POST /v1/replica/{name}/batch), so it may bound the
// read but must not size the buffer — a header claiming MaxFrameLen with
// nothing behind it is refused having allocated next to nothing.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hdr := make([]byte, 9)
	hdr[0] = ship.KindBatch
	binary.LittleEndian.PutUint32(hdr[1:], ship.MaxFrameLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ship.ReadBatchFrame(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ship.ErrFrame) {
		t.Fatalf("want ErrFrame, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a 9-byte header made ReadBatchFrame allocate %d bytes", got)
	}
}
