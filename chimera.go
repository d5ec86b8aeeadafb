// Package chimera is a from-scratch reproduction of "Composite Events in
// Chimera" (R. Meo, G. Psaila, S. Ceri — EDBT 1996): an active
// object-oriented database whose ECA rules are triggered by composite
// event expressions built from a minimal, orthogonal operator set —
// conjunction, disjunction, negation and precedence, each in a
// set-oriented and an instance-oriented (same-object) variant — with the
// paper's integer-valued ts semantics, the occurred/at/holds event
// formulas, immediate/deferred coupling, consuming/preserving event
// consumption, priorities, and the V(E) static optimization of the
// Trigger Support.
//
// Quick start:
//
//	db := chimera.Open()
//	db.DefineClass("stock",
//		chimera.Attr("name", chimera.KindString),
//		chimera.Attr("quantity", chimera.KindInt),
//		chimera.Attr("maxquantity", chimera.KindInt))
//	chimera.MustLoad(db, `
//		define immediate checkStockQty for stock
//		events create
//		condition stock(S), occurred(create, S), S.quantity > S.maxquantity
//		action modify(stock.quantity, S, S.maxquantity)
//		end`)
//	db.Run(func(tx *chimera.Txn) error {
//		_, err := tx.Create("stock", chimera.Values{
//			"name": chimera.Str("bolts"), "quantity": chimera.Int(99),
//			"maxquantity": chimera.Int(40)})
//		return err
//	})
//
// The event-expression syntax follows the paper's Figure 1:
//
//	create(stock) , modify(stock.quantity)        set disjunction
//	create(stock) + modify(stock.quantity)        set conjunction
//	create(stock) < modify(stock.quantity)        set precedence
//	-create(stock)                                set negation
//	,=  +=  <=  -=                                instance-oriented variants
package chimera

import (
	"fmt"
	"time"

	"chimera/internal/act"
	"chimera/internal/analysis"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/lang"
	"chimera/internal/metrics"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/stream"
	"chimera/internal/types"
)

// Core engine types.
type (
	// DB is a Chimera database: schema, object store, rules and the
	// transaction machinery.
	DB = engine.DB
	// Txn is an open transaction (a sequence of transaction lines).
	Txn = engine.Txn
	// ReadTxn is a lock-free read-only transaction over the latest
	// published commit snapshot (DB.BeginRead). It never blocks writers,
	// never triggers rules, and write operations on it return
	// ErrReadOnly.
	ReadTxn = engine.ReadTxn
	// Options configures a database.
	Options = engine.Options
	// Body is a rule's condition/action pair.
	Body = engine.Body
	// Stats aggregates engine counters.
	Stats = engine.Stats
	// Limits reports the configured resource bounds and the counters of
	// transactions that hit them.
	Limits = engine.Limits
)

// Sentinel errors of the transaction machinery.
var (
	// ErrTxnOpen is returned by DB.Begin when no further transaction
	// line can be admitted (one open transaction in single-session mode,
	// Options.MaxSessions lines in multi-session mode).
	ErrTxnOpen = engine.ErrTxnOpen
	// ErrConflict is returned by a transaction-line operation that lost
	// a latch conflict with a concurrent line; roll back and retry.
	ErrConflict = engine.ErrConflict
	// ErrGasExhausted is returned (wrapped) when a transaction exceeds
	// Options.GasLimit evaluation steps; roll back the transaction.
	ErrGasExhausted = engine.ErrGasExhausted
	// ErrDeadlineExceeded is returned (wrapped) when a transaction runs
	// past Options.TimeBudget; roll back the transaction.
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	// ErrEventLimit is returned (wrapped) by an event-logging operation
	// refused by Options.MaxEvents.
	ErrEventLimit = engine.ErrEventLimit
	// ErrRuleLimit is returned (wrapped) when a rule cascade exceeds
	// Options.MaxRuleExecutions.
	ErrRuleLimit = engine.ErrRuleLimit
	// ErrReadOnly is returned by write-shaped operations on a ReadTxn.
	ErrReadOnly = engine.ErrReadOnly
)

// Rule machinery.
type (
	// RuleDef is a rule's triggering definition (event expression,
	// coupling, consumption, priority, target).
	RuleDef = rules.Def
	// Coupling is the EC coupling mode.
	Coupling = rules.Coupling
	// Consumption is the event consumption mode.
	Consumption = rules.Consumption
)

// Coupling and consumption modes.
const (
	Immediate  = rules.Immediate
	Deferred   = rules.Deferred
	Consuming  = rules.Consuming
	Preserving = rules.Preserving
)

// Event calculus.
type (
	// Expr is a composite event expression.
	Expr = calculus.Expr
	// EventType is a primitive event type (operation + class [+ attr]).
	EventType = event.Type
	// TS is the integer ts value of the calculus (positive = active).
	TS = calculus.TS
	// Time is a logical time stamp.
	Time = clock.Time
)

// Values.
type (
	// Value is a dynamically typed attribute value.
	Value = types.Value
	// Values maps attribute names to values for creation.
	Values = map[string]types.Value
	// OID is an object identity.
	OID = types.OID
	// Kind is a value kind.
	Kind = types.Kind
)

// Value kinds.
const (
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindBool   = types.KindBool
	KindTime   = types.KindTime
	KindOID    = types.KindOID
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = types.Int
	// Float builds a float value.
	Float = types.Float
	// Str builds a string value.
	Str = types.String_
	// Bool builds a boolean value.
	Bool = types.Bool
	// Ref builds an object reference.
	Ref = types.Ref
)

// Expression constructors (the programmatic alternative to ParseExpr).
var (
	// Ev wraps a primitive event type into an expression.
	Ev = calculus.P
	// Conj is set conjunction (+), Disj set disjunction (,), Prec set
	// precedence (<), Neg set negation (-).
	Conj = calculus.Conj
	Disj = calculus.Disj
	Prec = calculus.Prec
	Neg  = calculus.Neg
	// ConjI, DisjI, PrecI and NegI are the instance-oriented variants
	// (+=, ,=, <=, -=).
	ConjI = calculus.ConjI
	DisjI = calculus.DisjI
	PrecI = calculus.PrecI
	NegI  = calculus.NegI
	// CreateOf, DeleteOf and ModifyOf build primitive event types.
	CreateOf = event.Create
	DeleteOf = event.Delete
	ModifyOf = event.Modify
)

// Observability. Set Options.Metrics to a fresh registry to instrument
// a database; DB.Snapshot reads everything back, and a Tracer observes
// the rule-processing lifecycle as structured spans. Both are proven
// inert: enabled vs disabled runs are differentially tested to produce
// identical triggerings and final states (DESIGN.md §9).
type (
	// MetricsRegistry is a named collection of atomic instruments.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every instrument.
	MetricsSnapshot = metrics.Snapshot
	// Tracer observes the rule-processing loop as lifecycle spans.
	Tracer = engine.Tracer
	// NopTracer is an embeddable all-no-op Tracer.
	NopTracer = engine.NopTracer
	// WriterTracer renders trace spans as text lines.
	WriterTracer = engine.WriterTracer
)

// NewMetricsRegistry returns an empty metrics registry for
// Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// SchemaAttribute declares one typed attribute of a class.
type SchemaAttribute = schema.Attribute

// Attr declares a class attribute.
func Attr(name string, kind Kind) SchemaAttribute {
	return SchemaAttribute{Name: name, Kind: kind}
}

// DefaultOptions is the paper's default configuration (formal ∃t'
// triggering with the V(E) filter, low-watermark compaction of the Event
// Base); it equals the zero Options.
func DefaultOptions() Options { return engine.DefaultOptions() }

// Open creates an empty database with the paper's default configuration
// (formal ∃t' triggering with the V(E) filter).
func Open() *DB { return engine.New(engine.DefaultOptions()) }

// OpenWith creates a database with explicit options.
func OpenWith(opts Options) *DB { return engine.New(opts) }

// ParseExpr parses an event expression in the Figure 1 syntax. target,
// when non-empty, resolves bare operation names ("create") against that
// class.
func ParseExpr(src, target string) (Expr, error) { return lang.ParseExpr(src, target) }

// MustParseExpr is ParseExpr panicking on error, for expression literals
// in examples and tests.
func MustParseExpr(src string) Expr {
	e, err := lang.ParseExpr(src, "")
	if err != nil {
		panic(err)
	}
	return e
}

// Load parses a script of class and rule definitions and installs it
// into the database.
func Load(db *DB, src string) error {
	prog, err := lang.ParseProgram(src)
	if err != nil {
		return err
	}
	for _, c := range prog.Classes {
		if c.Extends != "" {
			if err := db.DefineSubclass(c.Name, c.Extends, attrDefs(c)...); err != nil {
				return err
			}
			continue
		}
		if err := db.DefineClass(c.Name, attrDefs(c)...); err != nil {
			return err
		}
	}
	for _, r := range prog.Rules {
		if err := db.DefineRule(r.Def, engine.Body{Condition: r.Condition, Action: r.Action}); err != nil {
			return err
		}
	}
	return nil
}

func attrDefs(c lang.ClassDef) []schema.Attribute {
	out := make([]schema.Attribute, len(c.Attrs))
	for i, a := range c.Attrs {
		out[i] = schema.Attribute{Name: a.Name, Kind: a.Kind}
	}
	return out
}

// MustLoad is Load panicking on error.
func MustLoad(db *DB, src string) {
	if err := Load(db, src); err != nil {
		panic(fmt.Sprintf("chimera: %v", err))
	}
}

// DefineRule installs a programmatically built rule.
func DefineRule(db *DB, def RuleDef, condition cond.Formula, action act.Action) error {
	return db.DefineRule(def, engine.Body{Condition: condition, Action: action})
}

// AnalysisReport is the result of the static termination analysis.
type AnalysisReport = analysis.Report

// Analyze builds the triggering graph of the database's rule set and
// reports potential non-termination (a conservative static check; the
// engine additionally enforces a runtime execution limit).
func Analyze(db *DB) AnalysisReport { return analysis.Analyze(db) }

// SharingReport quantifies cross-rule subexpression sharing in the
// interned trigger plan (see DESIGN.md §10).
type SharingReport = analysis.SharingReport

// AnalyzeSharing reports the trigger plan's dedup ratio: expression tree
// nodes across the rule set versus live DAG nodes, plus the most-shared
// subexpressions.
func AnalyzeSharing(db *DB) SharingReport { return analysis.AnalyzeSharing(db) }

// Save writes a snapshot of the database (schema, objects, rules) as
// JSON to path. It captures committed state only, read from the
// published snapshot, so it may run while transactions are open in
// either session mode and none of their writes reach the file; the
// Event Base is per-transaction and is not persisted.
func Save(db *DB, path string) error { return storage.SaveFile(db, path) }

// Restore reconstructs a database from a snapshot file written by Save.
func Restore(path string) (*DB, error) {
	return storage.LoadFile(path, engine.DefaultOptions())
}

// RestoreWith is Restore with an explicit configuration for the rebuilt
// database. The options are validated; with durable options the store
// must be empty, and the restored state becomes its first checkpoint.
func RestoreWith(path string, opts Options) (*DB, error) {
	return storage.LoadFile(path, opts)
}

// Durability. Configure Options.Durability with a SegmentStore and an
// fsync policy, open with OpenDurable, and reopen after a crash (or a
// clean shutdown) with Recover: the checkpoint restores the committed
// base state and the WAL suffix replays logically through the live
// engine paths, landing bit-identical to the pre-crash state
// (DESIGN.md §13).
type (
	// DurabilityOptions selects the backing store, fsync policy, sync
	// interval, checkpoint cadence and recovery parallelism.
	DurabilityOptions = engine.DurabilityOptions
	// FsyncPolicy is the group committer's sync discipline.
	FsyncPolicy = engine.FsyncPolicy
	// SegmentStore persists the WAL, checkpoints and retired columnar
	// segments. MemStore keeps everything in memory (crash simulation,
	// tests); FileStore is the on-disk implementation.
	SegmentStore = engine.SegmentStore
	// MemStore is the in-memory SegmentStore.
	MemStore = storage.MemStore
	// FileStore is the directory-backed SegmentStore.
	FileStore = storage.FileStore
	// RecoveryReport summarizes what Recover replayed.
	RecoveryReport = engine.RecoveryReport
)

// Fsync policies.
const (
	// FsyncInterval (the default) syncs at most once per SyncInterval.
	FsyncInterval = engine.FsyncInterval
	// FsyncPerCommit syncs before Commit returns.
	FsyncPerCommit = engine.FsyncPerCommit
	// FsyncOff never syncs explicitly.
	FsyncOff = engine.FsyncOff
)

// Durability errors.
var (
	// ErrNeedsRecovery is returned by OpenDurable when the store holds
	// durable state from an earlier run; use Recover.
	ErrNeedsRecovery = engine.ErrNeedsRecovery
	// ErrWALFailed wraps the first I/O error the group committer hit;
	// commits fail with it until the database is closed and recovered.
	ErrWALFailed = engine.ErrWALFailed
	// ErrClosed is returned by operations on a closed database.
	ErrClosed = engine.ErrClosed
)

// NewMemStore returns an empty in-memory SegmentStore.
func NewMemStore() *MemStore { return storage.NewMemStore() }

// NewFileStore opens (creating if needed) a directory-backed
// SegmentStore.
func NewFileStore(dir string) (*FileStore, error) { return storage.NewFileStore(dir) }

// OpenDurable creates a database over the configured durable store. A
// store already holding state reports ErrNeedsRecovery.
func OpenDurable(opts Options) (*DB, error) { return engine.Open(opts) }

// Recover rebuilds a database from its store's checkpoint and WAL. The
// returned Txn is non-nil when the log ends inside an open transaction
// — the caller owns its fate (commit or roll back); the report
// summarizes what was replayed.
func Recover(opts Options) (*DB, *Txn, *RecoveryReport, error) { return engine.Recover(opts) }

// Streaming. OpenStream starts a continuous-ingestion session over a
// database: arrivals from any number of producers coalesce into
// micro-batches, each swept as one transaction block (one trigger
// sweep, one WAL record), with explicit backpressure, clock-driven
// flushes and an optional retention window for flat steady-state
// memory (DESIGN.md §15).
type (
	// Stream is a live stream session (see OpenStream).
	Stream = stream.Stream
	// StreamOptions configures a stream session: batch bound, flush
	// interval, queue size, backpressure policy, retention window,
	// per-batch budget and clock source.
	StreamOptions = stream.Options
	// StreamStats is a point-in-time snapshot of a stream session.
	StreamStats = stream.Stats
	// StreamEvent is one arrival (a primitive event type plus the
	// affected object).
	StreamEvent = stream.Event
	// BatchError reports a refused micro-batch with its offending
	// events; the batch rolled back to the previous batch's savepoint,
	// and the session keeps ingesting on the same line.
	BatchError = stream.BatchError
	// BackpressurePolicy selects what producers experience when the
	// arrival queue is full.
	BackpressurePolicy = stream.Policy
	// ClockSource paces stream flushes and the durability fsync ticker;
	// inject a ManualClock for deterministic time-driven behavior.
	ClockSource = clock.Source
	// ManualClock is a test clock advanced explicitly.
	ManualClock = clock.Manual
)

// Backpressure policies.
const (
	// BackpressureBlock makes Emit wait for queue room (lossless).
	BackpressureBlock = stream.Block
	// BackpressureDrop sheds arrivals when the queue is full (counted).
	BackpressureDrop = stream.Drop
)

// ErrStreamClosed is returned by operations on a closed stream session.
var ErrStreamClosed = stream.ErrClosed

// WallClock is the real-time ClockSource (the default).
var WallClock = clock.Wall

// ExternalOf builds the primitive event type of an external signal
// (Txn.Raise / Stream.Raise by name is usually more convenient).
var ExternalOf = event.External

// OpenStream starts a stream session over db. The session owns one
// transaction line until Close, which drains the queue, sweeps the
// remainder and commits.
func OpenStream(db *DB, opts StreamOptions) (*Stream, error) { return stream.Open(db, opts) }

// NewManualClock returns a ManualClock frozen at start.
func NewManualClock(start time.Time) *ManualClock { return clock.NewManual(start) }

// Derived combinators: related-work idioms (Ode/HiPAC/Snoop/Samos/
// REFLEX) expressed in the minimal calculus; see
// internal/calculus/derived.go for each operator's fidelity notes.
var (
	// Sequence chains expressions with set precedence (x1 < x2 < ...).
	Sequence = calculus.Sequence
	// SequenceI is Sequence on one object.
	SequenceI = calculus.SequenceI
	// AnyOf is n-ary set disjunction, AllOf n-ary set conjunction.
	AnyOf = calculus.AnyOf
	AllOf = calculus.ConjAll
	// NoneOf is the absence of every listed event in the window.
	NoneOf = calculus.NoneOf
	// SameObject is n-ary instance conjunction (Samos's "same").
	SameObject = calculus.SameObject
)
