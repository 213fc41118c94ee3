package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"cfdclean/internal/increpair"
	"cfdclean/internal/relation"
	"cfdclean/internal/store"
	"cfdclean/internal/wal"
)

// Durable sessions. When Options.DataDir is set, every hosted session
// owns a directory <data-dir>/<name>/ holding generation-numbered WAL
// files beside its page store:
//
//	wal-<gen>.log     batches accepted after generation <gen>
//	store/            the page store (internal/store); its
//	                  manifest-<gen>.mft is generation <gen>: the session
//	                  header (Σ, schema, counters, quota) and the page
//	                  table, committed atomically (tmp+rename)
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
// store manifest gen, an empty WAL gen, generations older than the
// previous one deleted — the previous pair is kept as a fallback in case
// the newest manifest is damaged. Create anchors generation 0, every
// SnapshotEvery batches the committer anchors gen+1, and recovery
// re-anchors when it finds no appendable tip WAL. Recovery
// (Server.Recover) walks the session directories, restores the newest
// readable manifest generation from the page store (a manifest whose
// header names another session is damaged), and replays the WAL records
// after it through the ordinary ApplyOps path; the journal-version
// cursor carried by
// every record (wal.Batch) makes the replay idempotent across
// generations and detects gaps. A torn or corrupted WAL tail — the
// expected artifact of kill -9 — is detected by CRC, discarded, and the
// file truncated back to the last intact record; committed batches
// before the damage are never lost.
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
// directory. It never collides with the WAL files (wal-*) and is removed
// with the directory on destroy.
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

func walPath(dir string, gen uint64) string { return filepath.Join(dir, wal.GenName("wal", gen)) }

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
	// stamped into every manifest's header so it survives recovery. Both
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
	// owns its lifecycle: created or reopened alongside the WAL, closed on
	// close(), removed with the directory on destroy().
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
	st, err := store.Create(filepath.Join(dir, storeDirName), sess.Current().Schema().Arity(), store.Options{})
	if err != nil {
		return nil, err
	}
	if err := sess.AttachStore(st, true); err != nil {
		st.Close()
		return nil, err
	}
	p := &persister{cfg: cfg, dir: dir, name: name, sess: sess, quota: quota, st: st}
	if err := p.anchorNow(0); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// appendBatch logs one batch — encode in the WAL file's string table,
// CRC-frame and append, without syncing — and returns the bytes
// appended. Called by the session's committer, which is how the encode
// and the append run concurrently with the worker's pass of that same
// batch — the WAL is off the single-writer hot path while record order
// still equals pass order (the commit channel is FIFO). The committer
// alone appends to and rotates the log (close runs after it exits), so
// the encode and the write run off the lock. The ops slices are the
// batch's original decoded inputs, which the engine never mutates
// (TUPLERESOLVE clones arriving tuples), so reading them here races
// nothing.
func (p *persister) appendBatch(b *wal.Batch) (int, error) {
	p.mu.Lock()
	log, err := p.log, p.broken
	p.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n, err := log.AppendBatch(b)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil && p.broken == nil {
		p.broken = err
	}
	if p.broken == nil {
		p.appended = b.Version
	}
	return n, p.broken
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
// generation on disk: the session header plus the store flush holding it
// and the pinned relation. Exactly one of anchor/abort must consume it. A
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
// rotation): the flush's pinned view is released, and the store's
// committed version stays, so the next flush to commit writes its pages.
func (c *capture) abort() {
	if c != nil {
		c.flush.Abort()
	}
}

// anchor makes c generation gen on disk — the one way a session's state
// becomes a generation: at create (gen 0), routine rotation, the
// re-anchor after a failed pass and recovery's re-anchor alike. The
// store's flush commits manifest gen, header and page table in one
// atomic record; then the empty WAL, whose directory entry wal.Create
// syncs before a batch can be acknowledged into it (a crash between the
// two leaves generation gen with no WAL, which recovery restores and
// re-anchors). Generations older than the previous one are pruned last;
// the previous pair stays as a fallback.
func (p *persister) anchor(gen uint64, c *capture) error {
	if err := c.flush.Commit(gen); err != nil {
		return err
	}
	log, err := wal.Create(walPath(p.dir, gen))
	if err != nil {
		return err
	}
	p.mu.Lock()
	old := p.log
	p.log, p.gen = log, gen
	p.appended, p.synced = c.snap.Version, c.snap.Version // the manifest commit fsynced file and directory
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

// pruneGenerations removes the WAL files of generations <= max (the store
// prunes its own manifests and pages).
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

// diskBytes sums the sizes of the files in the session's directory —
// WAL generations and the page store — or reports
// false for a memory-only session (p == nil).
func (p *persister) diskBytes() (int64, bool) {
	if p == nil {
		return 0, false
	}
	var n int64
	filepath.WalkDir(p.dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n, true
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

// restoreGeneration restores generation g of the session in dir: the
// page store's manifest g, whose header must name this session. The rows
// come from the store's pages, inserted by id under its persisted
// dictionary so every ValueID reproduces exactly, and the store is
// re-attached at the restored relation's version, so the next flush
// writes the pages the WAL replay that follows stamps. The returned
// persister holds the session, its store and the header's quota; the
// caller positions it on a log.
func restoreGeneration(cfg *Options, dir, name string, g uint64) (*persister, error) {
	st, snap, err := store.Open(filepath.Join(dir, storeDirName), g)
	if err == nil && snap.Name != name {
		st.Close()
		err = fmt.Errorf("%w: the header names session %q", wal.ErrCorrupt, snap.Name)
	}
	if err != nil {
		return nil, fmt.Errorf("manifest %d: %w", g, err)
	}
	src, err := st.Source()
	var dict *relation.Dict
	if err == nil {
		dict, err = st.Dict()
	}
	var sess *increpair.Session
	if err == nil {
		sess, err = increpair.RestoreFromSnapshotSource(snap, src, dict)
	}
	if err == nil {
		if err = sess.AttachStore(st, false); err != nil {
			sess.Close()
		}
	}
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("manifest %d: %w", g, err)
	}
	return &persister{cfg: cfg, dir: dir, name: name, sess: sess, quota: snap.Quota, st: st}, nil
}

// genFiles lists the generations of the files of one kind in dir,
// ascending.
func genFiles(dir, kind string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	var gens []uint64
	for _, e := range ents {
		if k, gen, _ := wal.ParseGenName(e.Name()); k == kind {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return gens, err
}

// recoverSession rebuilds one session from its directory: newest
// readable manifest generation first, then WAL replay across that and
// any later generations. It returns a persister positioned to continue
// appending, holding the restored session and the quota read from the
// chosen manifest.
// warn, when non-nil, reports acknowledged records that could NOT be
// replayed — payload corruption mid-log or a gap between generations —
// after which the session still serves, re-anchored on the recovered
// prefix; the operator must hear about the dropped suffix. (A torn *tail* in the
// newest log is not warned: those bytes never completed their append,
// so nothing acknowledged is behind them.)
func recoverSession(cfg *Options, name string) (p *persister, warn, err error) {
	dir := filepath.Join(cfg.DataDir, name)
	walGens, err := genFiles(dir, "wal")
	if err != nil {
		return nil, nil, err
	}
	gens, _ := genFiles(filepath.Join(dir, storeDirName), "manifest")
	if len(gens) == 0 {
		return nil, nil, fmt.Errorf("server: recover %s: no manifest found", name)
	}

	var baseGen uint64
	for _, g := range slices.Backward(gens) {
		// Any damage fails THIS generation only: the loop falls back to
		// the previous manifest.
		if p, err = restoreGeneration(cfg, dir, name, g); err == nil {
			baseGen = g
			break
		}
	}
	if p == nil {
		return nil, nil, fmt.Errorf("server: recover %s: no usable generation: %w", name, err)
	}
	sess := p.sess

	// Replay the logs from the restored generation forward. The version
	// cursor skips records already contained in the generation, so replay
	// is correct even when the chosen manifest is newer than a log's
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
		log, batches, discarded, err := wal.Open(walPath(dir, g))
		if errors.Is(err, wal.ErrVersion) {
			// A WAL of another build holds acknowledged batches this
			// build cannot read: refuse the tenant, files untouched,
			// rather than re-anchor over them.
			sess.Close()
			p.close()
			return nil, nil, fmt.Errorf("server: recover %s: wal generation %d: %w", name, g, err)
		}
		if batches == nil { // the header is refused: not one record reads
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
		// A record that does not decode in the file's table ends the
		// batches Open returns, and err names it.
		ri, rerr := 0, err
		for replayed = 0; ri < len(batches); ri++ {
			applied, e := sess.ReplayBatch(batches[ri])
			if e != nil {
				rerr = e
				break
			}
			if applied {
				replayed++
			}
		}
		if rerr != nil {
			// Payload-level damage: everything from here on is
			// untrusted, in this and any later generation — and unlike
			// a torn tail these records WERE acknowledged, so say so.
			warn = fmt.Errorf("server: recover %s: wal generation %d record %d does not replay (%w); this and later acknowledged records are discarded", name, g, ri, rerr)
			if log != nil {
				log.Close()
			}
			damaged = true
			break
		}
		if last && !damaged {
			tip = log // keep the handle: appends continue here
		} else {
			log.Close()
		}
	}

	v := sess.Snapshot().Version
	p.appended, p.synced = v, v
	if tip != nil {
		// Count the replayed records against the rotation budget: a
		// server that crash-loops just under SnapshotEvery fresh
		// batches per life must still rotate, or the tip WAL (and
		// every boot's replay) would grow without bound.
		p.gen, p.log, p.sinceSnap = walGens[len(walGens)-1], tip, replayed
	} else {
		// No appendable tip (damage, or the newest WAL is missing):
		// anchor the recovered state as a fresh generation.
		next := gens[len(gens)-1] + 1
		if len(walGens) > 0 {
			next = max(next, walGens[len(walGens)-1]+1)
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
