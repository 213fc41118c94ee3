// Package store is the pluggable tuple-storage layer behind a streaming
// session's relation. The default backend is the relation's own in-memory
// tuple array — zero overhead, exactly the pre-store behavior. The disk
// backend (Disk) is an incremental snapshot of that relation: fixed-width
// interned rows in generation-numbered page files and a persistent intern
// dictionary keyed by the relation Dict's dense ValueIDs. It subscribes to
// the relation's mutation journal only to learn which pages a mutation
// touched; it keeps no copy of a row in memory.
//
// The disk backend does not move the working set out of RAM — the repair
// engine needs the whole relation resident either way. What it removes is
// the relation-sized snapshot record at the durability boundary: a
// rotation walks the relation as pinned at the boundary once, writes the
// physical row order (O(|D|) small varints) and the images of the pages
// dirtied since the last rotation (the snapshot file shrinks to a slim
// header pointing at a page-file generation), and recovery streams rows
// back from the page files, reading only the pages the order file names,
// through a small LRU. See internal/server for the wiring.
package store

import "fmt"

// Kind selects a session's tuple-storage backend.
type Kind int

const (
	// KindMem (the zero value) keeps rows only in the relation's
	// in-memory array; snapshots carry the full relation inline.
	KindMem Kind = iota
	// KindDisk runs the page store; snapshots are slim headers
	// referencing a page-file generation.
	KindDisk
)

// ParseKind parses the -store flag's backend names; the empty string is
// the default, mem.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "mem":
		return KindMem, nil
	case "disk":
		return KindDisk, nil
	}
	return KindMem, fmt.Errorf("store: unknown backend %q (want mem or disk)", s)
}

// String renders the flag spelling.
func (k Kind) String() string {
	if k == KindDisk {
		return "disk"
	}
	return "mem"
}

// Page size bounds. A page holds rowsPerPage = PageSize/rowWidth rows;
// wide schemas whose single row exceeds PageSize degrade to one row per
// page rather than failing.
const (
	MinPageSize     = 4 << 10
	MaxPageSize     = 64 << 10
	DefaultPageSize = 16 << 10
)

// Options tunes a Disk store.
type Options struct {
	// PageSize is the page size in bytes, clamped to
	// [MinPageSize, MaxPageSize]; zero means DefaultPageSize. It only
	// matters at Create: an existing store's geometry is read from its
	// manifest, since row addressing must stay stable for its lifetime.
	PageSize int
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PageSize < MinPageSize {
		o.PageSize = MinPageSize
	}
	if o.PageSize > MaxPageSize {
		o.PageSize = MaxPageSize
	}
	return o
}

// Stats is a point-in-time summary of a Disk store, surfaced in session
// listings and /metrics.
type Stats struct {
	// Gen is the last committed manifest generation.
	Gen uint64
	// Pages counts pages in the committed page table; DirtyPages the
	// pages marked for the next flush (including flushes in flight);
	// CachedPages the page images the last recovery scan left in its
	// LRU — zero for a store that was never read back.
	Pages       int
	DirtyPages  int
	CachedPages int
	// Tuples is the row count at the last committed flush and
	// DictEntries the persisted intern-dictionary size.
	Tuples      int
	DictEntries int
	// DiskBytes is the total size of the store's files on disk.
	DiskBytes int64
}
