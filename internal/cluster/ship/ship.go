// Package ship is the replication layer of the streaming-session stack:
// a per-session WAL shipping stream from a primary to a follower. The
// primary's committer stage (internal/server) already serializes every
// accepted batch as a wal.Batch with a journal-version bracket; this
// package frames those batches (CRC-checked, version-cursored), sends
// them to the follower, and applies them there through the same
// ReplayBatch path crash recovery uses — so a follower is byte-identical
// to its primary by construction (the PR 3/5 determinism property), and
// promoting it after a primary crash is exactly as safe as restarting
// the primary itself.
//
// # Wire format
//
// A snapshot travels as the bytes wal.WriteSnapshot writes for a
// snapshot file — magic and format version, a header record, tuple
// chunk records — so a follower refuses an image from a build of another
// format version by name, and neither end holds the image as one buffer:
// the follower restores the rows as each chunk record decodes.
// A batch travels as one frame: a kind byte, then one record of the
// on-disk WAL's own framing (internal/wal's package comment is the
// format reference), so a truncated or corrupted frame is detected before
// it can reach the replica's engine.
//
//	frame   = kind(u8) record
//	kind    = 2 (batch, wal.Batch payload)
//
// # Healing model
//
// The stream is *not* assumed reliable. Batches carry the journal
// version bracket (PrevVersion, Version) the WAL already uses, and the
// replica applies them with the same rules as crash replay: duplicates
// (Version at or below the replica's counter) are skipped, and a batch
// whose PrevVersion is ahead of the counter is a gap — refused with
// ErrGap, never applied out of order. The shipper heals every refusal
// the same way a follower joins mid-stream in the first place: capture a
// fresh full snapshot from the live session (a quiescent image, exactly
// the recovery path) and reship it, after which the follower's counter
// has absorbed everything the lost frames carried. Dropped, duplicated,
// reordered and truncated frames therefore all converge back to the
// primary's state; see fault_test.go.
package ship

import (
	"errors"
	"fmt"
	"io"

	"cfdclean/internal/wal"
)

// KindBatch is the kind byte of a batch frame, the only kind there is.
// Kind 3 frames a record whose string table is its own (wal.Batch.Encode);
// kind 2 spelled every value inline, and a peer still sending it is
// refused by its kind.
const KindBatch byte = 3

// MaxFrameLen rejects absurd lengths decoded from a corrupted frame
// header before they drive a huge allocation. It is exported so the HTTP
// endpoints that receive replication bodies can bound them by what the
// codec accepts — capping them lower (e.g. at a generic API body limit)
// would strand sessions whose snapshot outgrew the cap with no way to
// ever bootstrap a follower.
const MaxFrameLen = 1 << 28 // 256 MiB

var (
	// ErrFrame reports a damaged batch frame: unknown kind, implausible
	// length, short read, checksum mismatch, or a payload that does not
	// decode.
	ErrFrame = errors.New("ship: bad frame")
	// ErrGap reports that the follower cannot chain a batch onto its
	// current journal version — frames are missing. The shipper heals
	// it by resyncing with a fresh snapshot; the follower never applies
	// out of order.
	ErrGap = errors.New("ship: follower cannot chain batch (gap)")
	// ErrUnknownReplica reports that the target node hosts no replica
	// for the session (a follower joining, or a node that lost its
	// state); healed by snapshot bootstrap.
	ErrUnknownReplica = errors.New("ship: no replica for session")
	// ErrRoleConflict reports that the target hosts the session as a
	// primary — shipping into it would split the brain, so the sender
	// must stop, not resync.
	ErrRoleConflict = errors.New("ship: target hosts the session as primary")
)

// Transport delivers one session's images and batches to its follower.
// ShipBatch returns ErrGap (resync needed), ErrUnknownReplica (bootstrap
// needed) or ErrRoleConflict (stop) as sentinel-wrapped errors; any other
// error is a delivery failure the shipper absorbs and heals later.
type Transport interface {
	// ShipSnapshot installs a full session image on the follower,
	// replacing whatever replica state it held.
	ShipSnapshot(name string, snap *wal.Snapshot) error
	// ShipBatch forwards one committed batch.
	ShipBatch(name string, b *wal.Batch) error
}

// EncodeBatchFrame frames one committed batch.
func EncodeBatchFrame(b *wal.Batch) []byte {
	return wal.AppendFrame([]byte{KindBatch}, b.Encode())
}

// ReadBatchFrame reads, verifies and decodes one batch frame from r. A
// clean end of stream before any header byte returns io.EOF; a stream
// that ends inside a frame (the shipped analogue of a torn WAL tail),
// fails its checksum or does not decode returns an ErrFrame-wrapped
// error. The length a header claims is held to MaxFrameLen before
// anything is allocated, and what is allocated follows the bytes that
// arrive (wal.ReadFrame).
func ReadBatchFrame(r io.Reader) (*wal.Batch, error) {
	var k [1]byte
	if _, err := io.ReadFull(r, k[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %w", ErrFrame, err)
	}
	if k[0] != KindBatch {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrFrame, k[0])
	}
	payload, err := wal.ReadFrame(r, MaxFrameLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFrame, err)
	}
	b, err := wal.DecodeBatch(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFrame, err)
	}
	return b, nil
}
