package cfdclean

import (
	"io"

	"cfdclean/internal/cfd"
	"cfdclean/internal/core"
	"cfdclean/internal/cost"
	"cfdclean/internal/increpair"
	"cfdclean/internal/metrics"
	"cfdclean/internal/relation"
	"cfdclean/internal/repair"
	"cfdclean/internal/sampling"
)

// Relational substrate. A Relation is an in-memory instance of a single
// Schema; Tuples carry string-or-null Values and optional per-attribute
// confidence weights in [0,1] (§3.2).
type (
	// Schema names a relation and its attributes.
	Schema = relation.Schema
	// Relation is an in-memory relation instance with active-domain
	// tracking.
	Relation = relation.Relation
	// Tuple is one row; Vals[i] corresponds to Schema.Attr(i).
	Tuple = relation.Tuple
	// TupleID identifies a tuple across the dirty database, its repair,
	// and the ground truth.
	TupleID = relation.TupleID
	// Value is a string constant or SQL null.
	Value = relation.Value
)

// NewSchema builds a schema; it fails on duplicate or empty attribute
// names.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	return relation.NewSchema(name, attrs...)
}

// MustSchema is NewSchema that panics on error; for fixed literals.
func MustSchema(name string, attrs ...string) *Schema {
	return relation.MustSchema(name, attrs...)
}

// NewRelation returns an empty relation over s.
func NewRelation(s *Schema) *Relation { return relation.New(s) }

// NewTuple builds a tuple from string values with unit weights; id 0
// lets the relation assign one on insert.
func NewTuple(id TupleID, vals ...string) *Tuple {
	return relation.NewTuple(id, vals...)
}

// S wraps a string constant as a Value; Null is the SQL null value.
func S(s string) Value { return relation.S(s) }

// Null is the SQL null Value (§3.1: equal to everything under '=',
// matching no pattern under ≼).
var Null = relation.NullValue

// ReadCSV loads a relation from CSV with a header row naming the
// attributes; the literal \N denotes null. name becomes the schema name.
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	return relation.ReadCSV(name, r)
}

// WriteCSV writes rel as CSV with a header row.
func WriteCSV(rel *Relation, w io.Writer) error {
	return relation.WriteCSV(rel, w)
}

// Constraints.
type (
	// CFD is a conditional functional dependency (R: X → Y, Tp) in
	// general form.
	CFD = cfd.CFD
	// PatternCell is one tableau entry: a constant or the wildcard '_'.
	PatternCell = cfd.Cell
	// NormalCFD is the normal form (R: X → A, tp) the algorithms
	// consume; obtain it with Normalize.
	NormalCFD = cfd.Normal
	// Violation reports one CFD violation (§3.1): the violating tuple,
	// the rule, and — for variable-RHS rules — the partner tuple.
	Violation = cfd.Violation
)

// Wildcard is the pattern cell '_' ("don't care").
var Wildcard = cfd.W

// Const returns a constant pattern cell.
func Const(s string) PatternCell { return cfd.C(s) }

// NewCFD builds a CFD over schema s with the given LHS and RHS attribute
// names and pattern rows (LHS cells first in each row).
func NewCFD(name string, s *Schema, lhs, rhs []string, rows ...[]PatternCell) (*CFD, error) {
	return cfd.New(name, s, lhs, rhs, rows...)
}

// NewFD builds the standard FD lhs → rhs as a CFD with a single
// all-wildcard pattern row.
func NewFD(name string, s *Schema, lhs, rhs []string) (*CFD, error) {
	return cfd.FD(name, s, lhs, rhs)
}

// ParseCFDs reads CFDs in the package's text format (see internal/cfd's
// Parse documentation and the examples directory). A constant is kept
// byte for byte, invalid UTF-8 included, as ReadCSV keeps a data value.
func ParseCFDs(s *Schema, r io.Reader) ([]*CFD, error) {
	return cfd.Parse(s, r)
}

// FormatCFDs writes CFDs in the same text format ParseCFDs reads, each
// constant byte for byte. What ParseCFDs would not read back as written
// cannot be written — a name or constant holding a line break, a line
// longer than ParseCFDs reads, a constant holding a single quote whose
// row would read back as other cells — and FormatCFDs returns an error
// for it before writing anything.
func FormatCFDs(w io.Writer, cfds []*CFD) error {
	return cfd.Format(w, cfds)
}

// Normalize rewrites Σ into normal form: one single-attribute-RHS,
// single-pattern-row rule per (CFD, RHS attribute, tableau row).
func Normalize(cfds []*CFD) []*NormalCFD {
	return cfd.NormalizeAll(cfds)
}

// Satisfiable reports whether a non-empty database can satisfy sigma;
// the error explains the first conflict found. Repairing requires a
// satisfiable Σ.
func Satisfiable(sigma []*NormalCFD) error {
	_, err := cfd.Satisfiable(sigma)
	return err
}

// Satisfies reports rel |= sigma.
func Satisfies(rel *Relation, sigma []*NormalCFD) bool {
	return cfd.Satisfies(rel, sigma)
}

// Violations returns up to limit violations of sigma in rel (limit <= 0
// means all): a prefix of Detect's.
func Violations(rel *Relation, sigma []*NormalCFD, limit int) []Violation {
	vs := Detect(rel, sigma, 0)
	if limit > 0 && len(vs) > limit {
		vs = vs[:limit]
	}
	return vs
}

// Detect returns every violation of sigma in rel in the canonical (tuple
// id, rule, partner id) order, listed by a violation store built on the
// calling goroutine and closed. workers drives nothing; the benchmark
// compiles against it until ROADMAP item 1(i)(b).
func Detect(rel *Relation, sigma []*NormalCFD, workers int) []Violation {
	return cfd.OneShot(rel, sigma, (*cfd.VioStore).Detect)
}

// VioCounts returns vio(t) for every tuple with at least one violation
// (§3.1).
func VioCounts(rel *Relation, sigma []*NormalCFD) map[TupleID]int {
	return cfd.OneShot(rel, sigma, (*cfd.VioStore).VioAll)
}

// Repairing.
type (
	// BatchOptions tunes BatchRepair: the cost model and the
	// dependency-graph ordering (NoDepGraph, the §7.2 ablation); Workers
	// drives nothing. The zero value uses the paper's defaults (DL metric,
	// dependency-graph ordering). PICKNEXT's bound is fixed: it evaluates
	// at most 64 live violations per rule group per step (§7.2).
	BatchOptions = repair.Options
	// BatchResult reports a completed batch repair.
	BatchResult = repair.Result
	// IncOptions tunes IncRepair/Repair and sessions; the zero value uses
	// the DL metric, linear ordering, k = 2 and 4 nearest values per
	// attribute. IncRepair always checks that its d satisfies Σ.
	IncOptions = increpair.Options
	// IncResult reports a completed incremental repair.
	IncResult = increpair.Result
	// Ordering selects the ΔD processing order of §5.2.
	Ordering = increpair.Ordering
	// CostModel scores candidate value changes (§3.2).
	CostModel = cost.Model
)

// The three INCREPAIR orderings (§5.2).
const (
	// OrderLinear processes tuples as given (L-INCREPAIR).
	OrderLinear = increpair.Linear
	// OrderByViolations processes tuples in increasing vio(t)
	// (V-INCREPAIR).
	OrderByViolations = increpair.ByViolations
	// OrderByWeight processes tuples in decreasing weight (W-INCREPAIR).
	OrderByWeight = increpair.ByWeight
)

// BatchRepair computes a repair of d satisfying sigma (BATCHREPAIR, §4).
// d is not modified. opts may be nil.
//
// The greedy loop runs on the calling goroutine, once per connected
// component of the violation graph (tuples sharing no violation), in
// canonical order; each component's repairs are written into the one
// working copy and seen by the components after it. The violation store
// counts d from its LHS tallies on the same goroutine, so
// BatchOptions.Workers changes nothing.
func BatchRepair(d *Relation, sigma []*NormalCFD, opts *BatchOptions) (*BatchResult, error) {
	return repair.Batch(d, sigma, opts)
}

// IncRepair repairs the tuples of delta for insertion into the clean
// database d so that the result satisfies sigma (INCREPAIR, §5); d and
// delta are not modified. opts may be nil.
func IncRepair(d *Relation, delta []*Tuple, sigma []*NormalCFD, opts *IncOptions) (*IncResult, error) {
	return increpair.Incremental(d, delta, sigma, opts)
}

// Repair cleans a whole dirty database with the incremental engine
// (§5.3): the consistent core of d is kept as-is and the violating
// tuples are re-inserted one at a time. opts may be nil.
func Repair(d *Relation, sigma []*NormalCFD, opts *IncOptions) (*IncResult, error) {
	return increpair.Repair(d, sigma, opts)
}

// Session is a streaming repair session: a cleaner opened over a
// database once, accepting ΔD batches with ApplyDelta (inserts only) or
// ApplyOps (mixed deletes, cell updates and inserts in one engine
// pass). Violation state is delta-maintained across batches — the base
// is never rescanned and no detector is rebuilt — so each batch costs
// O(|ΔD|), opening the online-cleaning scenario of §5.
//
// Sessions are safe for concurrent use: mutations serialize on an
// internal lock (single-writer), while Snapshot, Satisfied and Stats
// read atomically published state without locking. Close it when done
// streaming. For many sessions behind one process, see cmd/cfdserved —
// the HTTP service hosting named sessions with per-session work queues,
// whose responses are byte-identical to calling this API directly.
type Session = increpair.Session

// SessionSnapshot is an immutable, lock-free view of a Session's state,
// published after every mutation and stamped with the relation
// journal's NextID watermark and mutation version.
type SessionSnapshot = increpair.Snapshot

// SessionSet is one cell update in a Session.ApplyOps batch; the
// updated tuple is re-cleaned by the engine like any arriving tuple.
type SessionSet = increpair.SetOp

// NewSession opens a streaming cleaner over d (cloned, never modified).
// A dirty d is first cleaned with the §5.3 driver — Session.Initial
// reports that repair. Push batches with ApplyDelta; read the maintained
// result with Current. opts may be nil.
func NewSession(d *Relation, sigma []*NormalCFD, opts *IncOptions) (*Session, error) {
	return increpair.NewSession(d, sigma, opts)
}

// RestoreSession rebuilds a Session from a full-state snapshot written
// by Session.Persist: same schema, CFD set, tuples (ids and physical
// order included), journal marks and cumulative counters, with the
// violation store rebuilt by one deterministic detection pass. The
// restored session's Dump, violation listing and Stats are byte-identical
// to the persisted session's at the snapshot point. Batches logged after
// the snapshot are reapplied with Session.ReplayBatch — cmd/cfdserved
// replays its WAL the same way on boot when run with -data-dir.
//
// Persist holds the session lock only to pin a view of the relation, and
// writes the rows from the view through one reused chunk buffer while
// batches go on; RestoreSession reads and inserts one chunk record at a
// time. Beside the session itself each holds one chunk's bytes whatever
// the relation's size (Persist also keeps the copy-on-write pre-images of
// the pages batches write while it runs, at most the relation's). A
// damaged stream is refused whole (an error and no session), and so is a
// page-store header, whose rows are not in the stream.
func RestoreSession(r io.Reader) (*Session, error) {
	return increpair.RestoreSession(r)
}

// Framework (Fig. 3) and accuracy.
type (
	// Cleaner runs the repair→sample→feedback loop.
	Cleaner = core.Cleaner
	// CleanerConfig configures a Cleaner.
	CleanerConfig = core.Config
	// Outcome is the result of a cleaning run.
	Outcome = core.Outcome
	// Mode selects the repairing engine of the loop.
	Mode = core.Mode
	// User inspects samples; Corrector additionally supplies fixes.
	User = sampling.User
	// Corrector is a User that can also correct flagged tuples.
	Corrector = core.Corrector
	// Oracle is a simulated user backed by ground truth (§7.1).
	Oracle = sampling.Oracle
	// SampleOptions tunes the sampling module (§6).
	SampleOptions = sampling.Options
	// SampleReport is the sampling module's verdict on one repair.
	SampleReport = sampling.Report
	// Quality holds precision/recall of a repair against ground truth.
	Quality = metrics.Quality
)

// Cleaner modes.
const (
	// ModeBatch drives the loop with BatchRepair.
	ModeBatch = core.BatchMode
	// ModeIncremental drives the loop with Repair (the §5.3 driver).
	ModeIncremental = core.IncrementalMode
)

// NewCleaner validates cfg and builds a Cleaner.
func NewCleaner(cfg CleanerConfig) (*Cleaner, error) {
	return core.New(cfg)
}

// EvaluateSample draws a stratified sample of the repair repr, has user
// inspect it, and runs the §6 acceptance test; orig is the pre-repair
// database used for stratification by vio(t).
func EvaluateSample(repr, orig *Relation, sigma []*NormalCFD, user User, opts SampleOptions) (*SampleReport, error) {
	return sampling.Evaluate(repr, orig, sigma, user, opts)
}

// EvaluateQuality measures a repair against ground truth: d is the dirty
// input, repr the repair, dopt the correct database (§7.1).
func EvaluateQuality(d, repr, dopt *Relation) (*Quality, error) {
	return metrics.Evaluate(d, repr, dopt)
}

// Dif counts attribute-level differences between two relations sharing
// tuple ids (the paper's dif(·,·)).
func Dif(d1, d2 *Relation) int { return cost.Dif(d1, d2) }
