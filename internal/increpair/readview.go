package increpair

import (
	"io"
	"sync"

	"cfdclean/internal/cfd"
	"cfdclean/internal/relation"
)

// ReadView is a pinned, consistent read-only view of a Session at one
// journal version — the unit of the streaming read path. It is captured
// under the session lock as one relation pin plus, when the store holds
// violations, the store's Detect listing: one scan of the dirty buckets'
// members and a sort of the vio(D) entries — nothing in the steady
// state, where the INCREPAIR invariant drains violations after every
// batch. From then on every read streams without touching the writer's
// lock: the relation view is snapshot-isolated by page-level
// copy-on-write (see relation.View), and the violation listing was
// captured at pin time.
//
// A ReadView holds resources until Release: its relation generation pins
// pre-images of every page the writer dirties while the view is open.
// Callers must release promptly; Release is idempotent and safe from any
// goroutine. Views survive Session.Close — a dump in flight keeps
// streaming from its pinned state after the session shuts down.
type ReadView struct {
	rel     *relation.View
	snap    Snapshot
	vios    []cfd.Violation
	release sync.Once
}

// ReadView pins the session's current state. The lock is held only for
// the pin handoff: a relation slice-header capture plus the violation
// listing's capture (Detect; skipped between batches). Fails after Close.
func (s *Session) ReadView() (*ReadView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	v := &ReadView{rel: s.e.repr.Pin(), snap: *s.snap.Load()}
	if !s.e.store.Satisfied() {
		v.vios = s.e.store.Detect()
	}
	return v, nil
}

// Release drops the view's pin on the relation generation. Idempotent.
func (v *ReadView) Release() {
	v.release.Do(v.rel.Release)
}

// Version returns the journal version the view is pinned at. Two views
// with equal versions describe the identical relation state.
func (v *ReadView) Version() uint64 { return v.snap.Version }

// Snapshot returns the session snapshot captured at pin time; its
// counters are mutually consistent with the view's rows and violations.
func (v *ReadView) Snapshot() Snapshot { return v.snap }

// Len returns the number of tuples in the view.
func (v *ReadView) Len() int { return v.rel.Len() }

// Schema returns the session's schema.
func (v *ReadView) Schema() *relation.Schema { return v.rel.Schema() }

// Rows opens a cursor over the view's tuples in pinned physical order.
func (v *ReadView) Rows() *relation.RowCursor { return v.rel.Rows() }

// WriteCSV streams the view as CSV — byte-identical to Session.Dump at
// the same version — through the relation's CSV page cache
// (relation.View.WriteCSV).
func (v *ReadView) WriteCSV(w io.Writer) error { return v.rel.WriteCSV(w) }

// WriteCSVPages is WriteCSV, and counts the pages it wrote from the cache
// and those it encoded.
func (v *ReadView) WriteCSVPages(w io.Writer) (cached, encoded int, err error) {
	return v.rel.WriteCSVPages(w)
}

// TotalViolations returns vio(D) at the pinned version.
func (v *ReadView) TotalViolations() int { return v.snap.Violations }

// Violations returns one page of the view's violation listing: entries
// [offset, offset+limit) of the canonical (tuple id, rule, partner)
// sequence after applying f, limit <= 0 meaning the rest. more reports
// whether matching entries remain past the page — the server's
// next-cursor signal. Paging at a fixed version is stable: the
// concatenation of pages is byte-identical to a one-shot listing.
func (v *ReadView) Violations(f cfd.VioFilter, offset, limit int) (page []cfd.Violation, more bool) {
	if offset < 0 {
		offset = 0
	}
	skipped, taken := 0, 0
	for _, vi := range v.vios {
		if !f.Match(vi) {
			continue
		}
		if skipped < offset {
			skipped++
			continue
		}
		if limit > 0 && taken == limit {
			return page, true
		}
		page = append(page, vi)
		taken++
	}
	return page, false
}
