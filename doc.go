// Package cfdclean improves data quality with conditional functional
// dependencies (CFDs), reproducing "Improving Data Quality: Consistency
// and Accuracy" (Cong, Fan, Geerts, Jia, Ma; VLDB 2007).
//
// A CFD (R: X → Y, Tp) extends a functional dependency with a pattern
// tableau that binds semantically related values: standard FDs are the
// special case of a single all-wildcard pattern row, while constant rows
// let a single tuple violate a constraint (a 212 area code with a
// Philadelphia city, say). The package detects such violations, repairs
// them automatically, and serves long-lived cleaning sessions to many
// concurrent tenants.
//
// # Paper-to-package map
//
// Each section of the paper lands in one internal package, re-exported
// through this facade:
//
//	§2–3  model           internal/relation (schema, tuples, weights,
//	                      nulls, active domains, interning, CSV) and
//	                      internal/cfd (tableaus, normalization,
//	                      satisfiability, detection)
//	§3.2  cost model      internal/cost (weighted DL/ED distances, dif)
//	§4    BATCHREPAIR     internal/repair + internal/eqclass (cost-guided
//	                      equivalence classes, one component at a time)
//	§5    INCREPAIR       internal/increpair (TUPLERESOLVE, the three
//	                      orderings, the similarity search over the
//	                      active domains, streaming Session)
//	§6    sampling        internal/sampling (stratified samples, z-test)
//	                      wired by internal/core (the Fig. 3 loop)
//	§7    evaluation      internal/gen + workload (the order-relation
//	                      generator), internal/metrics (precision/
//	                      recall), cmd/experiments, bench_test.go
//	§9    future work     not reproduced (CFD mining, INDs)
//	—     service         internal/server + cmd/cfdserved (HTTP/JSON
//	                      multi-tenant session host; the §5 online
//	                      scenario as a long-running system)
//	—     durability      internal/wal (CRC-checked write-ahead log +
//	                      snapshot headers) and internal/store (the
//	                      rows, in page files); crash recovery replays
//	                      the journal's Delta stream through ApplyOps
//
// One documented substitution. §5.2 arranges adom(Repr, A) in a tree built
// by hierarchical agglomerative clustering and descends it to range over
// the values nearest a given one. This reproduction scans the live domain
// instead: Relation keeps it as a dense list, a query files every value of
// it by the bag distance of their character profiles (strdist.LowerBound,
// a lower bound on DL), measures the files with the bounded bit-vector DL
// kernel in increasing bound until the bound passes the k-th best
// distance, and keeps the best NearestK by (distance, value) within radius
// 8. That is exact, and a function of the relation's contents alone — a
// recovered session or a follower offers the candidates the live session
// offers. The limit: a query is still O(|adom(A)|), one profile compare a
// value, though the kernel runs only where the bound can still beat the
// k-th best (about a tenth of the values on the benchmark's streams);
// about 45 ns a value on six-letter words. The trees this replaced (the
// paper's dendrogram up to 64 values, a BK-tree beyond) bought little on
// the generated data, whose key-like values are nearly equidistant — nodes
// visited per query, as a share of the domain:
//
//	id 99 %   zip 95 %   PN 93 %   AC 73 %   PR 40 %   name 26 %
//
// — and neither was exact: the dendrogram's descent is approximate by
// design, and BK pruning assumes a triangle inequality the restricted DL
// distance breaks. EXPERIMENTS.md "PR 17" has the table and the timings.
//
// # Data flow
//
// All cleaning machinery hangs off one spine: a Relation emits typed
// deltas through its mutation journal, a VioStore folds them into
// maintained violation state, and the repair engines read that state
// instead of re-scanning:
//
//	CSV / generator / wire batches
//	        │ Insert / Delete / Set
//	        ▼
//	  Relation ──────── mutation journal (typed Delta, NextID watermark,
//	        │                             Version counter)
//	        │ subscribe                     │
//	        ▼                               ▼
//	  VioStore: violation counts per dirty bucket and group, vio(D) —
//	            delta-maintained from the LHS tallies
//	        │
//	        ├── BatchRepair (§4): violation-graph components
//	        │   repaired in place, one after another
//	        ├── IncRepair / Repair (§5): TUPLERESOLVE per arriving
//	        │   tuple against maintained state; an arrival whose
//	        │   first count is clean goes in as its probe stands —
//	        │   ids kept, buckets joined but not recounted
//	        └── Session: the same engine kept alive across ΔD batches
//	                │
//	                ├── ReadView: epoch-pinned snapshot (page-level
//	                │   copy-on-write; the writer preserves pre-images
//	                │   only for pages it dirties while a view is pinned)
//	                │         │
//	                │         ▼
//	                │   RowCursor over the pinned rows, plus the violation
//	                │   listing captured at pin time (the store's Detect,
//	                │   empty between batches) — streamed CSV dumps and
//	                │   filtered, paginated violation listings, O(page)
//	                │   allocation, no writer lock held during
//	                │   serialization
//	                ▼
//	        internal/server: named sessions, each a pipeline whose
//	        only serialized stage is the engine pass itself
//
//	          handler: decode + validate   (per-request goroutine)
//	                │
//	                ▼
//	          admission: per-tenant quotas, ahead of the queue —
//	                │ token buckets on ops/sec and tuples/sec
//	                │ (429 + Retry-After / X-Retry-After-Ms from the
//	                │ bucket's actual refill time), hard caps on
//	                │ relation size (403) and SSE subscribers (409)
//	                │ enqueue (bounded queue, 429 backpressure)
//	                ▼
//	          worker: fold coalescable batches → Check → engine pass
//	                │ record, then finished pass (FIFO)  [single writer]
//	                ▼
//	          committer: encode, WAL append, fsync ∥ the record's pass
//	                │              │ reply after durable    │ append, wake
//	                ▼              ▼                        ▼
//	          response codec   internal/wal            event ring (256
//	                           length-prefixed CRC'd   passes); each SSE
//	                           batch records +         stream reads it by
//	                           rotating snapshots      cursor on its own
//	                           under -data-dir/        goroutine, resync
//	                           <session>/              when overtaken
//	                                │
//	                                ├── internal/store: a store page is
//	                                │   the relation's 1 024-row view
//	                                │   page; rotation encodes only the
//	                                │   pages the pinned view stamped
//	                                │   after the last committed flush
//	                                │   into generation-numbered page
//	                                │   files (rows filed by position
//	                                │   in the image's row form: id cells
//	                                │   as uvarints, weights only where a
//	                                │   tuple has them; persistent dict),
//	                                │   and the snapshot is a slim
//	                                │   header naming StoreGen — O(written)
//	                                │   page bytes per rotation
//	                                │ on boot
//	                                ▼
//	                           RestoreFromSnapshotSource + ReplayBatch:
//	                           newest valid snapshot, its pages streamed
//	                           back once and in order, then WAL replay
//	                           through the same ApplyOps path (torn
//	                           tails discarded; byte-identical recovery)
//	                ▼
//	        cmd/cfdserved (HTTP/JSON service, -data-dir durability)
//
//	          read plane (off the pipeline entirely): GET /dump and
//	          GET /violations pin a ReadView from a small per-session
//	          version-keyed cache and stream from it — chunked CSV with
//	          a completion trailer, each 1 024-row page written from the
//	          relation's CSV page cache unless a write has touched it
//	          since it was last encoded, opaque (version, offset)
//	          pagination cursors (410 Gone once the pinned version ages
//	          out), X-Session-Version on every response; SSE reconnects
//	          replay the journal tail from Last-Event-ID; the committer
//	          expires idle cached views after each pass
//
//	          observability: one family list, rendered as Prometheus
//	          text by GET /metrics and as JSON keyed by the same family
//	          names by GET /v1/metrics — cumulative le-bucketed
//	          histograms for pass latency, fsync lag and fold size,
//	          per-session queue, store and quota/SSE-drop series, and
//	          service-wide counters a session's removal never lowers —
//	          assembled from atomic loads without touching any session
//	          worker
//
// Detection state is computed once per engine run and then maintained:
// every mutation costs O(affected buckets), never O(|D|), which is what
// makes both the detect→fix→re-detect repair loops and the streaming
// sessions scale. The same journal that feeds the VioStore is what the
// WAL serializes: a batch record is the batch's input ops as typed
// Deltas bracketed by the journal's Version counter, so recovery is
// replay of the exact deterministic passes the live session ran.
//
// # Concurrency contracts
//
// Detection and both repair engines run on the calling goroutine: the
// violation store, counted from the LHS tallies, is the one whole-database
// scan. Concurrency lives in sessions and the server, where it changes
// wall-clock time, never output.
//
// A Session is single-writer, many-reader: mutations serialize on
// an internal lock while snapshot reads are lock-free against
// atomically published state stamped with the journal's NextID
// watermark and mutation Version. Bulk reads go further: ReadView
// pins a refcounted epoch under a brief lock hand-off, after which
// dumps and violation listings iterate copy-on-write pages with no
// lock at all — the writer pays one page copy per dirtied page per
// pinned epoch, readers pay nothing. The server builds on this with a
// per-session pipeline — request decode in the handler goroutine,
// one worker goroutine running engine passes (single-writer by
// construction), one committer goroutine doing WAL encode, append
// and fsync while the worker runs that batch's pass (Session.Check
// fixes the record before the pass), post-durability
// acknowledgement and an append to the session's event ring, which
// each SSE stream reads on its own goroutine —
// plus a sharded session registry, bounded queues with
// backpressure, and graceful drain. Reply content is fixed at the
// pass boundary, so overlapping pass N+1 with pass N's commit
// changes no bytes on the wire.
//
// # Determinism
//
// Given the same inputs and options, every entry point produces
// byte-identical output — repairs, serialized CSV, and the service's
// wire responses (the server is verified byte-identical to in-process
// calls under -race). Randomized workloads are reproducible from their
// seed; see workload's package documentation.
//
// The quality of a repair against known ground truth is measured by
// EvaluateQuality (precision/recall over attribute-level differences,
// §7.1). See the examples directory for runnable walkthroughs
// (quickstart, incremental, streaming, service, ETL, accuracy),
// EXPERIMENTS.md for the reproduction of the paper's evaluation, and
// README.md for the service quickstart.
package cfdclean
