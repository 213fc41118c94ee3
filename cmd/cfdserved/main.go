// Command cfdserved serves concurrent streaming cleaning sessions over
// HTTP/JSON: the paper's §5 online scenario (INCREPAIR over arriving ΔD
// batches) as a multi-tenant service. Each named session hosts one base
// database plus a CFD set; clients stream mutation batches and read
// maintained violation state.
//
// Usage:
//
//	cfdserved [-addr :8344] [-queue 32] [-drain 10s] [-pprof ADDR]
//	          [-data-dir DIR] [-fsync batch|off] [-snap-every 64]
//	          [-max-read-limit 1000]
//	          [-peers HOST:PORT,HOST:PORT,...] [-self HOST:PORT]
//	          [-ack leader|quorum]
//
// With -data-dir the service is durable: every session writes a
// CRC-checked write-ahead log under DIR/<session>/ and, every -snap-every
// batches, a generation through its page store in DIR/<session>/store/:
// generation-numbered page files and one manifest holding the session
// header beside the page table, so a rotation writes only the pages
// written since the last one. On boot the service recovers every
// persisted session — newest valid manifest, its pages streamed back in
// order, then WAL replay — before accepting
// traffic, discarding any torn record tail a crash (kill -9 included)
// left behind. -fsync picks the durability/latency trade: "batch"
// syncs before every acknowledgement, "off" leaves flushing to the OS.
// -store is accepted for old command lines: "disk" (with -data-dir) is
// the only value, and it changes nothing.
//
// With -peers (a static comma-separated node list including this node's
// -self address) the service runs clustered: session names hash
// consistently across the peers, any node routes requests it does not
// own to the owner, and every primary streams its WAL to the session's
// ring follower, so killing a node loses nothing acknowledged — promote
// the follower (POST /v1/sessions/{name}/promote) and it serves a
// byte-identical session. Writes landing on a follower answer 421 with
// the primary's address in X-Primary. -ack picks the durability scope
// of an acknowledgement: "leader" (default) answers after the local
// fsync, "quorum" waits for the follower too. GET /v1/cluster shows
// placement. The peer list is fixed for the process's life: membership
// changes by a restart with a new -peers list, each node re-hosting its
// sessions in the role its -data-dir records; no session moves.
//
// A create request's "quota" field sets the session's admission limits,
// enforced ahead of its work queue: ops_per_sec and tuples_per_sec are
// token-bucket rates (writes rejected with 429 and a Retry-After
// computed from the bucket's refill time), max_relation_size caps
// relation size (403), max_subscribers caps concurrent SSE consumers
// (409). Zero means unlimited and a negative limit is a 400. The quota
// is session state: it survives a restart and follows the session to a
// replica.
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz                        liveness (503 while draining)
//	GET    /metrics                        Prometheus text exposition
//	GET    /v1/metrics                     the /metrics families as JSON
//	GET    /v1/sessions                    list sessions
//	POST   /v1/sessions                    create a session
//	GET    /v1/sessions/{name}             lock-free state snapshot
//	DELETE /v1/sessions/{name}             drain and close one session
//	POST   /v1/sessions/{name}/apply       synchronous mutation batch
//	POST   /v1/sessions/{name}/ingest      async insert batch (202/429)
//	GET    /v1/sessions/{name}/violations  paginated violations
//	GET    /v1/sessions/{name}/dump        relation as streamed CSV
//	GET    /v1/sessions/{name}/events      SSE stream of applied batches
//	POST   /v1/sessions/{name}/promote     promote a replica to primary
//	GET    /v1/cluster                     placement + replication state
//	PUT    /v1/replica/{name}              replication: snapshot install
//	POST   /v1/replica/{name}/batch        replication: one shipped batch
//	DELETE /v1/replica/{name}              replication: drop a replica
//
// The three /v1/replica routes are node-to-node traffic and answer 400
// on a node started without -peers.
//
// Reads are snapshot-isolated: each request pins a consistent view of
// the session and never blocks (or is blocked by) the writer. Every
// read response carries the pinned journal version in
// X-Session-Version. /violations pages with ?limit=N (positive,
// capped by -max-read-limit) plus optional ?rule=, ?attr=, ?min_id=,
// ?max_id= filters; follow next_cursor via ?cursor= to walk
// the rest of the listing at the same pinned version, and restart from
// scratch on 410 Gone once that version ages out. /dump streams CSV in
// chunks — a successful response ends with an X-Dump-Complete: true
// trailer, a mid-stream failure aborts the connection so truncation is
// detectable. /events resumes: reconnect with Last-Event-ID set to the
// last seen version and the missed journal tail is replayed from the
// session's 256-event ring. A "resync": true marker on the first event
// flags a gap: the ring no longer covers the id, the session was
// restarted or re-hosted since, or a stream fell 256 events behind.
//
// On SIGINT/SIGTERM the service drains gracefully: in-flight and queued
// batches finish, sessions close, then the listener stops.
//
// -pprof ADDR opens a second listener serving net/http/pprof on its
// default mux (/debug/pprof/...), kept off the service mux so profiling
// is never exposed on the public port. See EXPERIMENTS.md for the
// capture workflow.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only by -pprof
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"cfdclean/internal/server"
)

func main() {
	addr, pprofAddr, opts, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfdserved: %v\n", err)
		os.Exit(2)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	if err := serve(addr, pprofAddr, opts, sigc, nil); err != nil {
		fmt.Fprintf(os.Stderr, "cfdserved: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags turns the command line into the two listen addresses and
// the service options, or an error naming the flag at fault. Errors of
// the flag package itself (an undefined flag, a malformed value, -h)
// arrive after it has printed them and the usage to standard error.
func parseFlags(args []string) (addr, pprofAddr string, opts server.Options, err error) {
	fs := flag.NewFlagSet("cfdserved", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", ":8344", "listen address")
	fs.IntVar(&opts.QueueDepth, "queue", 32, "per-session work queue depth (full queue: apply blocks, ingest gets 429)")
	fs.DurationVar(&opts.DrainTimeout, "drain", 10*time.Second, "graceful shutdown budget for queued work")
	fs.StringVar(&opts.DataDir, "data-dir", "", "durability root: per-session WAL + snapshots, recovered on boot (empty: in-memory)")
	fsyncMode := fs.String("fsync", "batch", "WAL fsync policy: batch (sync before every ack) or off")
	fs.IntVar(&opts.SnapshotEvery, "snap-every", 64, "rotate to a fresh snapshot after this many logged batches")
	storeKind := fs.String("store", "", "accepted for old command lines: disk, the only snapshot format, needs -data-dir; no effect")
	fs.IntVar(&opts.MaxReadLimit, "max-read-limit", 1000, "cap on ?limit= for paginated violation reads")
	fs.StringVar(&pprofAddr, "pprof", "", "serve net/http/pprof on this extra address (empty: off)")
	peers := fs.String("peers", "", "cluster: comma-separated static node list, host:port each (empty: single-node)")
	fs.StringVar(&opts.Self, "self", "", "cluster: this node's own entry in -peers")
	ackMode := fs.String("ack", "leader", "cluster: write acknowledgement scope: leader (local fsync) or quorum (follower ack too)")
	if err = fs.Parse(args); err != nil {
		return
	}
	if fs.NArg() > 0 {
		fs.Usage()
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
		return
	}

	if opts.Fsync, err = server.ParseFsyncPolicy(*fsyncMode); err != nil {
		err = fmt.Errorf("-fsync: %w", err)
		return
	}
	if opts.Ack, err = server.ParseAckMode(*ackMode); err != nil {
		err = fmt.Errorf("-ack: %w", err)
		return
	}
	switch {
	case *storeKind != "" && *storeKind != "disk":
		err = fmt.Errorf("-store: unknown value %q (disk is the only snapshot format)", *storeKind)
		return
	case *storeKind == "disk" && opts.DataDir == "":
		err = errors.New("-store disk requires -data-dir (the page files live under it)")
		return
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Peers = append(opts.Peers, p)
			}
		}
		if opts.Self == "" {
			err = errors.New("-peers requires -self (this node's own entry in the list)")
			return
		}
		if !slices.Contains(opts.Peers, opts.Self) {
			err = fmt.Errorf("-self %q is not in -peers", opts.Self)
			return
		}
	}
	return
}

// serve runs the service until stop yields (a signal in production, a
// test's synthetic value otherwise), then drains gracefully. ready, if
// non-nil, receives the bound address once the listener is up. With a
// data dir configured, persisted sessions are recovered before the
// listener opens, so no request ever races the replay. A non-empty
// pprofAddr opens a second listener serving the DefaultServeMux, where
// the net/http/pprof import registered /debug/pprof.
func serve(addr, pprofAddr string, opts server.Options, stop <-chan os.Signal, ready chan<- string) error {
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return err
		}
	}
	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer pln.Close()
		go func() {
			log.Printf("cfdserved: pprof on http://%s/debug/pprof/", pln.Addr())
			http.Serve(pln, nil)
		}()
	}
	svc := server.New(opts)
	if opts.DataDir != "" {
		n, err := svc.Recover()
		// Unrecoverable tenants are skipped, not fatal: their data stays
		// on disk for inspection while everyone else serves. Recover joins
		// one error per tenant; each gets a line of its own.
		errs := []error{err}
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			errs = j.Unwrap()
		}
		for _, err := range errs {
			if err != nil {
				log.Printf("cfdserved: recovery incomplete: %v", err)
			}
		}
		log.Printf("cfdserved: recovered %d session(s) from %s (fsync %v, snapshot every %d batches)",
			n, opts.DataDir, opts.Fsync, opts.SnapshotEvery)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("cfdserved: listening on %s (queue depth %d)", ln.Addr(), opts.QueueDepth)
		errc <- hs.Serve(ln)
	}()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("cfdserved: %v — draining (budget %v)", sig, opts.DrainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("cfdserved: drain incomplete: %v", err)
	} else {
		log.Printf("cfdserved: drained cleanly")
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
