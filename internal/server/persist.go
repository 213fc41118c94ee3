package server

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cfdclean/internal/increpair"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// Durable sessions. When Options.DataDir is set, every hosted session
// owns a directory <data-dir>/<name>/ holding generation-numbered
// snapshot/WAL pairs beside its page store:
//
//	snap-<gen>.snap   slim snapshot header naming store generation <gen>
//	                  (atomic tmp+rename)
//	wal-<gen>.log     batches accepted after that snapshot
//	store/            the page store (internal/store): the rows of every
//	                  generation a snapshot still names
//
// The session's committer goroutine — the pipeline stage downstream of
// the single-writer engine worker — appends one WAL record per engine
// pass (a coalesced ingest run is one pass and one record) *before*
// replying to the client, so under the per-batch fsync policy an
// acknowledged apply is on disk. The record is the batch's ops bracketed
// by the journal versions before and after the pass, and Check fixes the
// second before the pass runs, so the committer appends and fsyncs the
// record while the worker runs the pass. A follower's shipped batches
// take the same path (see Registry.ReplicateBatch). A failed append,
// fsync, rotation or role-marker write breaks the persister: the batch
// is not acknowledged, and the session refuses every later write.
//
// A session's state becomes a generation in one way (capture, anchor):
// store manifest gen, snapshot gen, an empty WAL gen, generations older
// than the previous one deleted — the previous pair is kept as a
// fallback in case the newest snapshot is damaged. Create anchors
// generation 0, every SnapshotEvery batches the committer anchors gen+1,
// and recovery re-anchors when it finds no appendable tip WAL. Recovery
// (Server.Recover) walks the session directories, restores the newest
// readable snapshot, and replays the WAL records after it through the
// ordinary ApplyOps path; the journal-version cursor carried by every
// record (wal.Batch) makes the replay idempotent across generations and
// detects gaps. A torn or corrupted WAL tail — the expected artifact of
// kill -9 — is detected by CRC, discarded, and the file truncated back
// to the last intact record; committed batches before the damage are
// never lost.
//
// A batch Check refuses never reaches a pass and writes nothing: no
// record, no generation. A pass that fails once Check accepted it — an
// engine bug, since ApplyOps runs the same validation under the single
// writer — may leave relation state that no WAL record describes, so the
// worker captures that boundary and the committer anchors it, keeping
// the on-disk image authoritative.

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncBatch syncs after every accepted batch, before the client
	// sees the reply: an acknowledged batch survives power loss. The
	// safest and slowest policy.
	FsyncBatch FsyncPolicy = iota
	// FsyncOff never syncs explicitly; the OS flushes on its own
	// schedule. A process kill loses nothing (the page cache survives);
	// power loss may lose recent batches.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values onto policies.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want batch or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// storeDirName is the page store's subdirectory inside a session's data
// directory. It never collides with the generation files (snap-*/wal-*)
// and is removed with the directory on destroy.
const storeDirName = "store"

// roleMarkerName is the follower-role marker inside a session's
// directory: present means the durable state belongs to a replica,
// absent means primary. register writes it and Promote removes it, so a
// restarted node re-hosts each session in the role it was really
// serving. Without it a rebooted follower would come back as
// a primary: the true primary's shipper then hits 421 and stops
// (split-brain guard), while the stale copy silently serves — the
// split brain the marker exists to prevent.
const roleMarkerName = "follower.role"

// writeRoleMarker syncs the on-disk role marker to the given role,
// durably: written through wal.WriteFileAtomic (a crash leaves the old
// role or the new one, never a torn marker), removed with a directory
// fsync — a power loss must not resurrect a promoted session as a
// follower, nor lose a follower's marker.
func writeRoleMarker(dir string, follower bool) error {
	path := filepath.Join(dir, roleMarkerName)
	if follower {
		return wal.WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, "follower\n")
			return err
		})
	}
	if err := os.Remove(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // nothing changed, nothing to make durable
		}
		return err
	}
	return wal.SyncDir(dir)
}

// readRoleMarker reports whether dir is marked as holding a follower
// replica's state.
func readRoleMarker(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, roleMarkerName))
	return err == nil
}

func snapPath(dir string, gen uint64) string { return filepath.Join(dir, wal.GenName("snap", gen)) }
func walPath(dir string, gen uint64) string  { return filepath.Join(dir, wal.GenName("wal", gen)) }

// persister is one session's durability sidecar. The session's worker
// asks it after every pass whether the boundary must become a generation
// (boundary); everything that touches the files runs on the session's
// committer goroutine (see hosted.committer). The mutex fences the
// committer's log and failure state against the worker (markBroken) and
// the readers of failure (listings, /metrics, the write path's refusal).
type persister struct {
	cfg  *Options // the server's options; DataDir is set
	dir  string
	name string
	// sess is the session this sidecar records; quota its quota,
	// stamped into every snapshot header so it survives recovery. Both
	// are fixed for the persister's life.
	sess  *increpair.Session
	quota wal.Quota
	// sinceSnap is the rotation budget: successful passes since the last
	// anchor, seeded by recovery with the records it replayed out of the
	// tip WAL. Worker-only state (see boundary).
	sinceSnap int

	mu       sync.Mutex
	gen      uint64
	log      *wal.Log
	appended uint64 // last version appended to the open log
	synced   uint64 // last version known to be on stable storage
	broken   error  // first unrecoverable persistence failure; sticky

	// st is the session's page store, attached to sess. The persister
	// owns its lifecycle: created or reopened alongside the snapshot/WAL
	// pair, closed on close(), removed with the directory on destroy().
	st *store.Disk
}

// newPersister sets up durability for a freshly created session: its
// directory is (re)created empty, the session gets a page store seeded
// from the live relation, and generation 0 is anchored on the
// post-initial-cleaning state. Any stale directory content under the
// same name — left by a session that could not be recovered — is
// replaced.
func newPersister(cfg *Options, name string, sess *increpair.Session, quota wal.Quota) (*persister, error) {
	dir := filepath.Join(cfg.DataDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := createStore(dir, sess)
	if err != nil {
		return nil, err
	}
	p := &persister{cfg: cfg, dir: dir, name: name, sess: sess, quota: quota, st: st}
	if err := p.anchorNow(0); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// createStore gives sess a fresh page store under dir, its pages seeded
// from the live relation. store.Create empties the store directory
// first, so a store a crash left half-written is never reused.
func createStore(dir string, sess *increpair.Session) (*store.Disk, error) {
	st, err := store.Create(filepath.Join(dir, storeDirName), sess.Current().Schema().Arity(), store.Options{})
	if err != nil {
		return nil, err
	}
	if err := sess.AttachStore(st, true); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// appendBatch logs one batch: delta-encode, CRC-frame and append, without
// syncing. Called by the session's committer, which is how the encode and
// the append run concurrently with the worker's pass of that same batch —
// the WAL is off the single-writer hot path while record order still
// equals pass order (the commit channel is FIFO). The ops slices are the
// batch's original decoded inputs, which the engine never mutates
// (TUPLERESOLVE clones arriving tuples), so reading them here races
// nothing.
func (p *persister) appendBatch(b *wal.Batch) error {
	payload := b.Encode() // off-lock
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return p.broken
	}
	if err := p.log.Append(payload); err != nil {
		p.broken = err
		return err
	}
	p.appended = b.Version
	return nil
}

// syncNow flushes the log to stable storage — the one sync step, called
// by the committer after each append under -fsync batch: on success
// everything appended so far is known durable.
func (p *persister) syncNow() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken != nil {
		return p.broken
	}
	if p.log == nil {
		return nil
	}
	if err := p.log.Sync(); err != nil {
		p.broken = err
		return err
	}
	p.synced = p.appended
	return nil
}

// failure returns the persistence failure that broke p, or nil — always
// nil for a memory-only session (p == nil).
func (p *persister) failure() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.broken
}

// markBroken records a persistence failure discovered outside the
// persister (e.g. the worker failing to capture a rotation snapshot).
func (p *persister) markBroken(err error) {
	p.mu.Lock()
	if p.broken == nil {
		p.broken = err
	}
	p.mu.Unlock()
}

// capture is a session's state at one batch boundary, ready to become a
// generation on disk: a slim snapshot header plus the store flush holding
// the dirty pages. Exactly one of anchor/abort must consume it. A
// rotation's capture must be taken by the session worker at the exact
// batch boundary.
type capture struct {
	snap  *wal.Snapshot
	flush *store.Flush
}

// capture images the session at its current batch boundary, the quota
// stamped into the header.
func (p *persister) capture() (*capture, error) {
	snap, flush, err := p.sess.PersistBoundary(p.name)
	if err != nil {
		return nil, err
	}
	snap.Quota = p.quota
	return &capture{snap: snap, flush: flush}, nil
}

// boundary is the worker's call after every engine pass: it returns a
// capture when this batch boundary must become a generation — the
// rotation budget ran out, or a pass Check accepted failed and may have
// left state no WAL record describes — and nil otherwise. It cannot be
// deferred to the committer, which may lag passes behind: a generation's
// base must equal the last logged record's state. A failed capture
// breaks the persister.
func (p *persister) boundary(failed bool) *capture {
	if !failed {
		p.sinceSnap++
		if p.sinceSnap < p.cfg.SnapshotEvery {
			return nil
		}
	}
	c, err := p.capture()
	if err != nil {
		p.markBroken(err)
		return nil
	}
	p.sinceSnap = 0
	return c
}

// abort releases a capture the committer cannot anchor because the
// persister broke (a failed WAL append or sync, an earlier failed
// rotation): the flush's pinned view and pages are handed back so the
// next boundary carries them.
func (c *capture) abort() {
	if c != nil {
		c.flush.Abort()
	}
}

// anchor makes c generation gen on disk — the one way a session's state
// becomes a generation: at create (gen 0), routine rotation, the
// re-anchor after a failed pass and recovery's re-anchor alike. The
// store's flush commits first, so manifest gen is durable before the
// slim snapshot that references it (a crash between the two leaves a
// readable previous generation, never a snapshot pointing at missing
// pages); then the snapshot file, then the empty WAL, whose directory
// entry wal.Create syncs before a batch can be acknowledged into it.
// Generations older than the previous one are pruned last; the previous
// pair stays as a fallback.
func (p *persister) anchor(gen uint64, c *capture) error {
	if err := c.flush.Commit(gen); err != nil {
		return err
	}
	c.snap.StoreGen = gen
	if err := wal.WriteSnapshotFile(snapPath(p.dir, gen), c.snap); err != nil {
		return err
	}
	log, err := wal.Create(walPath(p.dir, gen))
	if err != nil {
		return err
	}
	p.mu.Lock()
	old := p.log
	p.log, p.gen = log, gen
	p.appended, p.synced = c.snap.Version, c.snap.Version // the snapshot write fsynced file and directory
	p.mu.Unlock()
	if gen >= 2 {
		pruneGenerations(p.dir, gen-2)
	}
	if old != nil {
		return old.Close()
	}
	return nil
}

// anchorNow captures the session as it stands and anchors it: the
// create and recovery form, where nothing runs beside the caller.
func (p *persister) anchorNow(gen uint64) error {
	c, err := p.capture()
	if err != nil {
		return err
	}
	return p.anchor(gen, c)
}

// rotate is the committer's anchor: the next generation from a boundary
// the worker captured. A failure breaks the persister: the session
// refuses later writes and keeps serving reads, and info() and /metrics
// say so.
func (p *persister) rotate(c *capture) {
	p.mu.Lock()
	broken, next := p.broken, p.gen+1
	p.mu.Unlock()
	if broken != nil {
		c.abort()
		return
	}
	if err := p.anchor(next, c); err != nil {
		p.markBroken(err)
	}
}

// pruneGenerations removes snapshot and WAL files of generations <= max
// (the .tmp sibling of a snapshot write in flight is no generation file).
func pruneGenerations(dir string, max uint64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if _, gen, ok := wal.ParseGenName(e.Name()); ok && gen <= max {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// close ends persistence gracefully (drain/shutdown): sync, close, keep
// the data for the next boot.
func (p *persister) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil {
		if err := p.log.Close(); err != nil && p.broken == nil {
			p.broken = err
		}
		p.log = nil
	}
	p.st.Close()
}

// destroy ends persistence and deletes the session's directory — the
// durable counterpart of DELETE /v1/sessions/{name}: a removed session
// must not resurrect on the next boot.
func (p *persister) destroy() {
	p.close()
	os.RemoveAll(p.dir)
}

// storeStats reports the page store's stats, or nil for a memory-only
// session (p == nil); session listings and /metrics render it.
func (p *persister) storeStats() *store.Stats {
	if p == nil {
		return nil
	}
	s := p.st.Stats()
	return &s
}

// status renders the persistence state for session listings.
func (p *persister) status() string {
	if p == nil {
		return ""
	}
	if err := p.failure(); err != nil {
		return "error: " + err.Error()
	}
	return "ok"
}

// restorePaged rebuilds a session from a slim snapshot header: open the
// page store at the referenced generation, stream its rows in the
// persisted physical order (with the persisted intern dictionary
// preloaded so every ValueID reproduces exactly), and
// re-attach the store so the WAL replay that follows marks its pages
// dirty again. No relation-sized snapshot record is ever decoded —
// recovery reads each page of the row count once, in order.
func restorePaged(dir, name string, snap *wal.Snapshot) (*increpair.Session, error) {
	st, err := store.Open(filepath.Join(dir, storeDirName), snap.StoreGen, len(snap.Attrs))
	if err != nil {
		return nil, fmt.Errorf("server: recover %s: store gen %d: %w", name, snap.StoreGen, err)
	}
	src, err := st.Source()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("server: recover %s: store gen %d: %w", name, snap.StoreGen, err)
	}
	sess, err := increpair.RestoreFromSnapshotSource(snap, src, st.Strings())
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("server: recover %s: store gen %d: %w", name, snap.StoreGen, err)
	}
	if err := sess.AttachStore(st, false); err != nil {
		sess.Close()
		st.Close()
		return nil, err
	}
	return sess, nil
}

// restoreGeneration restores snapshot generation g of the session in
// dir, reading the file record by record: an inline generation's rows go
// into the session as they decode, and a page-store header, which must
// end the file, restores from the page store (restorePaged).
func restoreGeneration(dir, name string, g uint64) (*increpair.Session, wal.Quota, error) {
	f, err := os.Open(snapPath(dir, g))
	if err != nil {
		return nil, wal.Quota{}, err
	}
	defer f.Close()
	file := filepath.Base(f.Name())
	snap, rows, err := wal.NewSnapshotReader(f)
	if err != nil {
		return nil, wal.Quota{}, fmt.Errorf("snapshot %s: %w", file, err)
	}
	if snap.Name != "" && snap.Name != name {
		return nil, wal.Quota{}, fmt.Errorf("server: recover %s: snapshot names session %q", name, snap.Name)
	}
	if snap.StoreKind == wal.StorePaged {
		if _, more, err := rows.Next(); more || err != nil {
			return nil, wal.Quota{}, fmt.Errorf("snapshot %s: rows behind a page-store header: %w", file, cmp.Or(err, wal.ErrCorrupt))
		}
		sess, err := restorePaged(dir, name, snap)
		return sess, snap.Quota, err
	}
	sess, err := increpair.RestoreFromSnapshotSource(snap, rows, nil)
	if err != nil {
		return nil, wal.Quota{}, fmt.Errorf("snapshot %s: %w", file, err)
	}
	return sess, snap.Quota, nil
}

// recoverSession rebuilds one session from its directory: newest
// readable snapshot generation first, then WAL replay across that and
// any later generations. A generation written inline, by a node from
// before the page store was the only snapshot writer, is restored from
// its own tuples; the session then gets a fresh page store and is
// re-anchored at the next generation, so the inline format is read once
// and never written. It returns a persister positioned to continue
// appending, holding the restored session and the quota read from the
// chosen snapshot.
// warn, when non-nil, reports acknowledged records that could NOT be
// replayed — payload corruption mid-log or a gap between generations —
// after which the session still serves, re-anchored on the recovered
// prefix; the operator must hear about the dropped suffix. (A torn *tail* in the
// newest log is not warned: those bytes never completed their append,
// so nothing acknowledged is behind them.)
func recoverSession(cfg *Options, name string) (p *persister, warn, err error) {
	dir := filepath.Join(cfg.DataDir, name)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var snapGens, walGens []uint64
	for _, e := range ents {
		switch kind, gen, _ := wal.ParseGenName(e.Name()); kind {
		case "snap":
			snapGens = append(snapGens, gen)
		case "wal":
			walGens = append(walGens, gen)
		}
	}
	if len(snapGens) == 0 {
		return nil, nil, fmt.Errorf("server: recover %s: no snapshot found", name)
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	var (
		sess    *increpair.Session
		baseGen uint64
		quota   wal.Quota
		lastErr error
	)
	for _, g := range snapGens {
		s, q, err := restoreGeneration(dir, name, g)
		if err != nil {
			// Any damage fails THIS generation only: the loop falls back
			// to the previous snapshot.
			lastErr = err
			continue
		}
		sess, baseGen, quota = s, g, q
		break
	}
	if sess == nil {
		return nil, nil, fmt.Errorf("server: recover %s: no usable snapshot: %w", name, lastErr)
	}

	// Replay the logs from the restored generation forward. The version
	// cursor skips records already contained in the snapshot, so replay
	// is correct even when the chosen snapshot is newer than a log's
	// records (or older, after a fallback to the previous generation).
	var (
		tip      *wal.Log // open log of the newest generation, append-ready
		damaged  bool
		replayed int // records applied into the tip generation's session
	)
	for i, g := range walGens {
		if g < baseGen {
			continue
		}
		last := i == len(walGens)-1
		log, payloads, discarded, err := wal.Open(walPath(dir, g))
		if err != nil {
			damaged = true
			warn = fmt.Errorf("server: recover %s: wal generation %d unreadable (%w); later records discarded", name, g, err)
			break
		}
		if discarded > 0 {
			damaged = true
			if !last {
				// Tail damage in a non-final generation is a hole:
				// the next generation's records cannot chain onto it.
				warn = fmt.Errorf("server: recover %s: wal generation %d has a damaged tail (%d bytes) with later generations present; those are discarded", name, g, discarded)
			}
		}
		replayFailed := false
		replayed = 0
		for ri, payload := range payloads {
			b, derr := wal.DecodeBatch(payload)
			if derr == nil {
				var applied bool
				if applied, derr = sess.ReplayBatch(b); derr == nil {
					if applied {
						replayed++
					}
					continue
				}
			}
			// Payload-level damage: everything from here on is
			// untrusted, in this and any later generation — and unlike
			// a torn tail these records WERE acknowledged, so say so.
			replayFailed = true
			warn = fmt.Errorf("server: recover %s: wal generation %d record %d does not replay (%w); this and later acknowledged records are discarded", name, g, ri, derr)
			break
		}
		if replayFailed {
			log.Close()
			damaged = true
			break
		}
		if last && !damaged {
			tip = log // keep the handle: appends continue here
		} else {
			log.Close()
		}
	}

	st := sess.Store()
	if st == nil {
		// Restored inline: convert. Whatever store/ an interrupted
		// earlier conversion left is replaced, and the tip WAL is
		// closed — the next generation's WAL takes the appends.
		if tip != nil {
			tip.Close()
			tip = nil
		}
		if st, err = createStore(dir, sess); err != nil {
			sess.Close()
			return nil, nil, err
		}
	}
	v := sess.Snapshot().Version
	p = &persister{cfg: cfg, dir: dir, name: name, sess: sess, quota: quota, st: st, appended: v, synced: v}
	if tip != nil {
		// Count the replayed records against the rotation budget: a
		// server that crash-loops just under SnapshotEvery fresh
		// batches per life must still rotate, or the tip WAL (and
		// every boot's replay) would grow without bound.
		p.gen, p.log, p.sinceSnap = walGens[len(walGens)-1], tip, replayed
	} else {
		// No appendable tip (damage, the newest WAL is missing, or an
		// inline generation converted): anchor the recovered state as a
		// fresh generation.
		next := snapGens[0] + 1
		if len(walGens) > 0 && walGens[len(walGens)-1] >= snapGens[0] {
			next = walGens[len(walGens)-1] + 1
		}
		if err := p.anchorNow(next); err != nil {
			sess.Close()
			p.close() // the page store recovery re-attached, too
			return nil, nil, err
		}
	}
	return p, warn, nil
}

// Recover scans Options.DataDir and re-hosts every persisted session.
// It must run before the server accepts traffic. Sessions that cannot
// be recovered at all are skipped, and sessions recovered with
// acknowledged records discarded (mid-log corruption, generation gaps)
// still come up but are reported — both land in the joined error, so
// one corrupt tenant never keeps the rest offline and the operator
// still hears about every dropped batch. Unrecoverable directories are
// left untouched for inspection (creating a session under the same
// name replaces them).
func (s *Server) Recover() (restored int, err error) {
	cfg := s.reg.persist
	if cfg == nil {
		return 0, nil
	}
	ents, readErr := os.ReadDir(cfg.DataDir)
	if readErr != nil {
		if errors.Is(readErr, os.ErrNotExist) {
			return 0, nil
		}
		return 0, readErr
	}
	var errs []error
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		p, warn, rerr := recoverSession(cfg, name)
		if rerr != nil {
			errs = append(errs, rerr)
			continue
		}
		if warn != nil {
			errs = append(errs, warn)
		}
		// A session whose directory carries the follower marker was a
		// replica when this node went down; re-host it as one, so the
		// true primary's shipping stream resumes (healing any missed
		// batches by gap-detected resync) instead of hitting a phantom
		// primary and stopping. On a node rebooted WITHOUT peers the
		// marker is ignored — and cleared by register — because a follower
		// with no cluster would refuse writes forever.
		role := rolePrimary
		if s.reg.cluster != nil && readRoleMarker(filepath.Join(cfg.DataDir, name)) {
			role = roleFollower
		}
		if _, cerr := s.reg.register(name, p.sess, p.sess.Current().Schema(), p, p.quota, role); cerr != nil {
			p.close()
			p.sess.Close()
			errs = append(errs, fmt.Errorf("server: recover %s: %w", name, cerr))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}
