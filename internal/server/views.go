package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cfdclean/internal/cfd"
	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
)

// The read-side view cache: every streaming read (violation page, CSV
// dump) runs against an increpair.ReadView — a snapshot-isolated pin of
// the session at one journal version, acquired under the session lock
// for only the pin handoff. Paginated reads need the SAME pinned
// version across requests (the cursor token names it), so released
// views are retained briefly, keyed by version, and a cursor whose
// version has been evicted — or was never pinned here — gets 410 Gone:
// the client restarts from a fresh first page.
//
// Retention is deliberately small: at most maxCachedViews idle views,
// dropped by LRU and by TTL. A retained view costs the pre-images of
// pages the writer has dirtied since the pin (see relation.View), so
// the cap bounds read amplification on the write path no matter how
// many clients paginate. That cost grows only when a pass dirties pages,
// so the TTL is enforced where it can grow: the committer prunes after
// every pass, and every cache touch prunes too. A view abandoned
// mid-pagination is released by the first pass after its TTL, even if
// no reader ever comes back.

const (
	// maxCachedViews bounds idle (refcount zero) views retained for
	// cursor continuation.
	maxCachedViews = 4
	// viewTTL drops an idle view that no paginating client has touched
	// for this long.
	viewTTL = time.Minute
)

// errVersionGone maps to 410 Gone: the cursor's pinned version is no
// longer reachable (evicted, or from a previous server life).
var errVersionGone = errors.New("server: pinned version no longer available")

// pinnedView is one cached ReadView plus its reader refcount. evicted
// marks a view removed from the table while still referenced — the
// last release frees it.
type pinnedView struct {
	rv      *increpair.ReadView
	refs    int
	lastUse time.Time
	evicted bool
}

// viewCache shares pinned views among a session's readers, keyed by
// journal version. Two requests at the same version share one pin —
// equal versions describe identical state — so N paginating clients
// cost one set of COW pre-images, not N.
type viewCache struct {
	mu     sync.Mutex
	sess   *increpair.Session
	views  map[uint64]*pinnedView
	closed bool
	ttl    time.Duration // viewTTL, overridable by tests
}

func newViewCache(sess *increpair.Session) *viewCache {
	return &viewCache{sess: sess, views: make(map[uint64]*pinnedView), ttl: viewTTL}
}

// acquireCurrent pins the session's current state (or shares an already
// cached pin of that version) and returns the view plus its release.
func (c *viewCache) acquireCurrent() (*increpair.ReadView, func(), error) {
	rv, err := c.sess.ReadView()
	if err != nil {
		return nil, nil, err
	}
	return c.adopt(rv)
}

// acquireAt returns a view pinned at exactly version: from the cache,
// or — when version is still the session's current one — via a fresh
// pin. Anything else is errVersionGone.
func (c *viewCache) acquireAt(version uint64) (*increpair.ReadView, func(), error) {
	c.mu.Lock()
	if pv, ok := c.views[version]; ok {
		pv.refs++
		pv.lastUse = time.Now()
		rel := c.releaser(pv)
		c.mu.Unlock()
		return pv.rv, rel, nil
	}
	c.mu.Unlock()
	rv, err := c.sess.ReadView()
	if err != nil {
		return nil, nil, err
	}
	if rv.Version() != version {
		rv.Release()
		return nil, nil, errVersionGone
	}
	return c.adopt(rv)
}

// adopt inserts a freshly pinned view into the table, or — when a
// concurrent reader already cached that version — releases the new pin
// and shares the cached one.
func (c *viewCache) adopt(rv *increpair.ReadView) (*increpair.ReadView, func(), error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Session shutting down: serve this one request uncached.
		return rv, rv.Release, nil
	}
	if pv, ok := c.views[rv.Version()]; ok {
		rv.Release()
		pv.refs++
		pv.lastUse = time.Now()
		return pv.rv, c.releaser(pv), nil
	}
	pv := &pinnedView{rv: rv, refs: 1, lastUse: time.Now()}
	c.views[rv.Version()] = pv
	c.pruneLocked()
	return rv, c.releaser(pv), nil
}

// releaser returns the idempotent release for one acquire of pv.
func (c *viewCache) releaser(pv *pinnedView) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			pv.refs--
			pv.lastUse = time.Now()
			if pv.evicted && pv.refs == 0 {
				pv.rv.Release()
			} else {
				c.pruneLocked()
			}
			c.mu.Unlock()
		})
	}
}

// prune drops idle views past the TTL; the committer calls it after
// every pass.
func (c *viewCache) prune() {
	c.mu.Lock()
	c.pruneLocked()
	c.mu.Unlock()
}

// pruneLocked drops idle views past the TTL, then the least recently
// used beyond the cap. Views with readers are never touched.
func (c *viewCache) pruneLocked() {
	var idle []*pinnedView
	for v, pv := range c.views {
		if pv.refs != 0 {
			continue
		}
		if time.Since(pv.lastUse) > c.ttl {
			pv.rv.Release()
			delete(c.views, v)
			continue
		}
		idle = append(idle, pv)
	}
	if len(idle) > maxCachedViews {
		sort.Slice(idle, func(i, j int) bool { return idle[i].lastUse.Before(idle[j].lastUse) })
		for _, pv := range idle[:len(idle)-maxCachedViews] {
			pv.rv.Release()
			delete(c.views, pv.rv.Version())
		}
	}
}

// closeAll empties the table on session shutdown. Views still held by
// in-flight readers keep streaming — they are marked evicted and freed
// by their last release (ReadViews survive Session.Close by design).
func (c *viewCache) closeAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for v, pv := range c.views {
		delete(c.views, v)
		if pv.refs == 0 {
			pv.rv.Release()
		} else {
			pv.evicted = true
		}
	}
}

// readCursor is the decoded form of the opaque pagination token: the
// pinned version, the offset into the filtered listing, and the filter
// itself. The filter rides IN the token so every page of one
// pagination is provably the same query — a page request carrying both
// a cursor and explicit filter parameters is rejected.
type readCursor struct {
	version uint64
	offset  int
	f       cfd.VioFilter
}

// encodeCursor serializes c as an opaque URL-safe token. The rule name
// goes last so it may contain any character, colons included.
func encodeCursor(c readCursor) string {
	raw := fmt.Sprintf("%d:%d:%d:%d:%d:%s",
		c.version, c.offset, c.f.Attr, c.f.MinID, c.f.MaxID, c.f.Rule)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

var errBadCursor = errors.New("malformed cursor")

func decodeCursor(s string) (readCursor, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return readCursor{}, errBadCursor
	}
	parts := strings.SplitN(string(b), ":", 6)
	if len(parts) != 6 {
		return readCursor{}, errBadCursor
	}
	var c readCursor
	if c.version, err = strconv.ParseUint(parts[0], 10, 64); err != nil {
		return readCursor{}, errBadCursor
	}
	if c.offset, err = strconv.Atoi(parts[1]); err != nil || c.offset < 0 {
		return readCursor{}, errBadCursor
	}
	if c.f.Attr, err = strconv.Atoi(parts[2]); err != nil || c.f.Attr < -1 {
		return readCursor{}, errBadCursor
	}
	minID, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil || minID < 0 {
		return readCursor{}, errBadCursor
	}
	maxID, err := strconv.ParseInt(parts[4], 10, 64)
	if err != nil || maxID < 0 {
		return readCursor{}, errBadCursor
	}
	c.f.MinID, c.f.MaxID = relation.TupleID(minID), relation.TupleID(maxID)
	c.f.Rule = parts[5]
	return c, nil
}
