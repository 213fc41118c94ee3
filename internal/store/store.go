// Package store is the page store a durable session's snapshots are
// written through: the relation's rows, in the snapshot image's row form
// over the relation Dict's dense ValueIDs, in generation-numbered page
// files, and a persistent intern dictionary of those ids. A store page is
// the relation's view page (relation.PageRows rows); the store keeps no
// copy of a row in memory and no set of dirty pages.
//
// The store does not move the working set out of RAM — the repair
// engine needs the whole relation resident. What it removes is the
// relation-sized snapshot record at the durability boundary. Rows are
// filed at their position in the relation's physical order, so a
// rotation writes only the images of the pages the relation stamped
// after the last committed flush, encoded from the relation as pinned
// at the boundary (the snapshot file shrinks to a slim header pointing
// at a page-file generation), and recovery streams the rows back by
// reading the pages of the row count once, in order. See internal/server
// for the wiring.
package store

// Options tunes a Disk store. It has no field: a page is the relation's
// view page, whatever the arity.
type Options struct{}

// Stats is a point-in-time summary of a Disk store, surfaced in session
// listings and /metrics.
type Stats struct {
	// Gen is the last committed manifest generation.
	Gen uint64
	// Pages counts pages in the committed page table, ⌈Tuples /
	// relation.PageRows⌉; FlushPages the pages the last flush this
	// process committed wrote (0 before the first).
	Pages      int
	FlushPages int
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
