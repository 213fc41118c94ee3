// Package store is the page store a durable session's snapshots are
// written through: the relation's rows, in the snapshot image's row form
// over the relation Dict's dense ValueIDs, in generation-numbered page
// files, and a persistent intern dictionary of those ids. It subscribes to the relation's mutation journal only
// to learn which pages a mutation touched; it keeps no copy of a row in
// memory.
//
// The store does not move the working set out of RAM — the repair
// engine needs the whole relation resident. What it removes is the
// relation-sized snapshot record at the durability boundary. Rows are
// filed at their position in the relation's physical order, so a
// rotation writes only the images of the pages whose positions were
// written since the last rotation, encoded from the relation as pinned
// at the boundary (the snapshot file shrinks to a slim header pointing
// at a page-file generation), and recovery streams the rows back by
// reading the pages of the row count once, in order. See internal/server
// for the wiring.
package store

// Page size bounds. A page holds as many rows as PageSize has room for
// at their longest (see disk.go); wide schemas whose longest row exceeds
// PageSize degrade to one row per page rather than failing.
const (
	MinPageSize     = 4 << 10
	MaxPageSize     = 64 << 10
	DefaultPageSize = 16 << 10
)

// Options tunes a Disk store.
type Options struct {
	// PageSize is the page size in bytes, clamped to
	// [MinPageSize, MaxPageSize]; zero means DefaultPageSize. Only Create
	// takes Options: Open reads an existing store's geometry from its
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
	// Pages counts pages in the committed page table, ⌈Tuples /
	// rows per page⌉; DirtyPages the pages marked for the next flush
	// (including flushes in flight).
	Pages      int
	DirtyPages int
	// CachedPages is always 0: the store caches no page. It stays
	// because the benchmark harness reads it.
	CachedPages int
	// Tuples is the row count at the last committed flush and
	// DictEntries the persisted intern-dictionary size.
	Tuples      int
	DictEntries int
	// DiskBytes is the total size of the store's files on disk.
	DiskBytes int64
}
