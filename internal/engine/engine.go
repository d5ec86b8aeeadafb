// Package engine implements the Chimera execution machinery of Section 2
// and Section 5: the Block Executor that runs non-interruptible execution
// blocks (user transaction lines and rule actions), the Event Handler
// hand-off that stores fresh occurrences into the Occurred-Events
// structure and wakes the Trigger Support, and the rule-processing loop
// that considers and executes triggered rules by priority with
// immediate/deferred EC coupling and consuming/preserving event
// consumption.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/metrics"
	"chimera/internal/object"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
	"chimera/internal/wire"
)

// ErrNoTransaction is returned by transactional operations outside a
// transaction.
var ErrNoTransaction = errors.New("engine: no active transaction")

// ErrTxnOpen is returned by Begin when the database cannot admit another
// transaction line: in single-session mode (Options.MaxSessions ≤ 1)
// when a transaction is already open, in multi-session mode when
// MaxSessions lines are active. Errors are (possibly) wrapped — test
// with errors.Is.
var ErrTxnOpen = errors.New("engine: transaction already open")

// ErrConflict reports that a transaction line lost a latch conflict
// with a concurrent line and was not granted access within the
// configured wait (Options.LockWait). The losing line should be rolled
// back and retried. It aliases object.ErrConflict so either package's
// sentinel matches.
var ErrConflict = object.ErrConflict

// ErrRuleLimit is returned when a rule cascade exceeds the configured
// execution budget — the engine's guard against non-terminating rule
// sets.
var ErrRuleLimit = errors.New("engine: rule execution limit exceeded")

// ErrGasExhausted is returned (wrapped) when a transaction spends more
// evaluation gas than Options.GasLimit allows. The open block is
// refused (Txn.EndLine); the engine, its shared plan DAG and the WAL
// stay fully consistent and reusable. Aliases calculus.ErrGasExhausted so either
// package's sentinel matches with errors.Is.
var ErrGasExhausted = calculus.ErrGasExhausted

// ErrDeadlineExceeded is returned (wrapped) when a transaction's
// evaluation runs past Options.TimeBudget. Same contract as
// ErrGasExhausted; aliases calculus.ErrDeadlineExceeded.
var ErrDeadlineExceeded = calculus.ErrDeadlineExceeded

// ErrEventLimit is returned (wrapped) when an append would grow a
// transaction's Event Base past Options.MaxEvents — the explicit error
// that replaces unbounded memory growth. Aliases event.ErrLimit.
var ErrEventLimit = event.ErrLimit

// Body is the condition/action pair of a rule (the triggering state is
// owned by the rules package).
type Body struct {
	Condition cond.Formula
	Action    act.Action
}

// Options configures a database.
type Options struct {
	// Support configures the Trigger Support; New fills its Metrics from
	// Metrics when unset.
	Support rules.Options
	// MaxRuleExecutions bounds rule executions per transaction; 0 means
	// the default of 10000.
	MaxRuleExecutions int
	// GasLimit bounds the evaluation work one transaction may perform,
	// in node-evaluation units (the work TsEvaluations/MemoMisses
	// count), across the triggering determination and condition
	// formulas; 0 = unlimited. A transaction exceeding it fails with a
	// wrapped ErrGasExhausted, which refuses the open block; the engine
	// and its shared structures stay consistent (DESIGN.md §14). The
	// spent budget stays spent.
	GasLimit int64
	// TimeBudget bounds a transaction's wall-clock evaluation time,
	// measured from Begin; 0 = unlimited. Exceeding it fails with a
	// wrapped ErrDeadlineExceeded under the same degradation contract
	// as GasLimit. The deadline is probed every few dozen node
	// evaluations, so the overshoot past the deadline is microseconds.
	TimeBudget time.Duration
	// MaxEvents bounds the live (retained, uncompacted) occurrences of
	// one transaction's Event Base; 0 = unlimited. An append past the
	// bound fails with a wrapped ErrEventLimit, which refuses the open
	// block, instead of growing without limit — the guard against a
	// transaction outrunning its consumption watermark.
	MaxEvents int
	// DisableCompaction keeps every occurrence of a transaction in the
	// Event Base instead of retiring segments below the consumption
	// low-watermark at block boundaries. Compaction is semantically
	// transparent (it only drops occurrences no defined rule's window can
	// reach); disabling it trades bounded memory for a complete log —
	// useful for the differential reference and for ad-hoc inspection of
	// Txn.Base over windows older than every rule's horizon.
	DisableCompaction bool
	// SegmentSize overrides the Event Base segment size (occurrences per
	// generation); 0 uses event.DefaultSegmentSize. Small sizes exercise
	// segment boundaries and compaction in tests; production
	// configurations should leave the default.
	SegmentSize int
	// Metrics, when non-nil, is the registry the engine and every layer
	// under it (Event Base, Trigger Support) report into; read it back
	// with DB.Snapshot. Its counters are the ones DB.Stats and
	// Support.Stats read, so a registry serves one database: two given
	// the same one would share their Stats too. nil (the default) keeps
	// those counters in the database and reports nothing else: every
	// other report site reduces to one branch-predictable nil check.
	// The differential suite pins enabled vs disabled runs to identical
	// semantics (see DESIGN.md §9).
	Metrics *metrics.Registry
	// MaxSessions is how many transaction lines Begin admits at once.
	// 0 or 1 is the classic single-session engine: one open transaction,
	// no latching, bit-identical to the sequential reference. Above 1
	// each Begin opens an independent line with its own undo, and the
	// object store isolates the lines with per-OID/per-class latches
	// (DESIGN.md §11). In both modes every line has its own Event Base
	// and its own Trigger Support session, recycled from the lines
	// before it, and durable databases checkpoint (explicitly or every
	// Durability.CheckpointEvery blocks) whether lines are open or not.
	MaxSessions int
	// LockWait bounds how long a line blocks on a latch another line
	// holds before the operation fails with ErrConflict: 0 means the
	// 100ms default, negative is a try-latch (immediate ErrConflict).
	// Since latches are held to end of line, the timeout doubles as the
	// deadlock breaker; an unbounded wait is deliberately not offered.
	LockWait time.Duration
	// Durability, when its Store is set, makes the database durable: a
	// group-committed write-ahead log covers the live window, sealed
	// Event Base segments and the committed object/schema/rule state are
	// persisted by checkpoints, and engine.Recover rebuilds a
	// bit-identical engine after a crash (DESIGN.md §13). Durable
	// databases are constructed with Open, not New.
	Durability DurabilityOptions
}

// Validate checks the options for constructor use: negative limits are
// rejected rather than silently clamped, so a misconfiguration fails at
// Open, not at first use. It restricts no combination of fields.
func (o Options) Validate() error {
	if o.SegmentSize < 0 {
		return fmt.Errorf("engine: negative SegmentSize %d", o.SegmentSize)
	}
	if o.MaxSessions < 0 {
		return fmt.Errorf("engine: negative MaxSessions %d", o.MaxSessions)
	}
	if o.MaxRuleExecutions < 0 {
		return fmt.Errorf("engine: negative MaxRuleExecutions %d", o.MaxRuleExecutions)
	}
	if o.GasLimit < 0 {
		return fmt.Errorf("engine: negative GasLimit %d", o.GasLimit)
	}
	if o.TimeBudget < 0 {
		return fmt.Errorf("engine: negative TimeBudget %v", o.TimeBudget)
	}
	if o.MaxEvents < 0 {
		return fmt.Errorf("engine: negative MaxEvents %d", o.MaxEvents)
	}
	if o.Durability.enabled() {
		if o.Durability.SyncInterval < 0 {
			return fmt.Errorf("engine: negative Durability.SyncInterval %v", o.Durability.SyncInterval)
		}
		if o.Durability.CheckpointEvery < 0 {
			return fmt.Errorf("engine: negative Durability.CheckpointEvery %d", o.Durability.CheckpointEvery)
		}
	}
	return nil
}

// DefaultOptions is the configuration the facade and the examples start
// from. It is the zero Options: the triggering determination always runs
// the V(E) filter of Section 5.1 (DESIGN.md §10), so nothing is left to
// switch on.
func DefaultOptions() Options {
	return Options{}
}

// Stats aggregates engine-level counters (`show stats`, the B0 benchmark).
type Stats struct {
	Transactions   int64
	Blocks         int64
	Events         int64
	RuleExecutions int64
	Considerations int64
	// ReadTxns counts read-only transactions (BeginRead).
	ReadTxns int64
	// Conflicts counts transaction-line operations that failed with
	// ErrConflict (always 0 in single-session mode).
	Conflicts int64
	// Budget-kill counters: transactions that hit a resource limit.
	// GasKills and DeadlineKills count evaluation-budget exhaustions
	// (ErrGasExhausted / ErrDeadlineExceeded), EventLimitHits appends
	// refused by the Event Base bounds (ErrEventLimit), RuleLimitHits
	// rule cascades stopped by MaxRuleExecutions (ErrRuleLimit).
	GasKills       int64
	DeadlineKills  int64
	EventLimitHits int64
	RuleLimitHits  int64
}

// DB is a Chimera database: schema, object store, rule set, and the
// machinery to run transactions against them.
type DB struct {
	clock   *clock.Clock
	schema  *schema.Schema
	store   *object.Store
	support *rules.Support
	// types numbers the database's event types, for every transaction's
	// Event Base, the Trigger Support and the condition evaluators alike.
	types event.Registry
	// bodies and conds are the rule registry: each rule's condition and
	// action, and the plan DefineRule interned the conditions' event
	// formulas into. Only rule DDL writes them, under mu with no line open.
	bodies map[string]Body
	conds  *calculus.Plan
	opts   Options
	// tracer is the installed Tracer (nil: none). SetTracer swaps it while
	// lines run, so every reader loads it once per span it opens.
	tracer atomic.Pointer[tracerBox]

	// mu guards the session state: the single-session txn pointer, the
	// active-line count and the work of ended lines, idle until a Begin
	// takes it.
	mu     sync.Mutex
	txn    *Txn
	active int
	idle   []*lineWork
	// commitMu is the commit pipeline's serialization point: deferred
	// rule processing and the publication of a line's writes (its latch
	// release) happen one line at a time, in commit order, while
	// everything before — trigger determination, condition evaluation,
	// immediate rules — runs fully in parallel across lines.
	commitMu sync.Mutex

	// m, baseMetrics and latchM are the resolved instrument sets (zero
	// values when Options.Metrics is nil); baseMetrics is installed on
	// each transaction's Event Base at Begin, latchM on each line.
	m           engineMetrics
	baseMetrics event.BaseMetrics
	latchM      object.LatchMetrics

	// Durability state (nil wal on the classic in-memory engine): the
	// group committer, the checkpoint sequence number (cross-checked
	// against the WAL's leading marker record), the transaction
	// generation that namespaces persisted segment ids, the high-water
	// mark of persisted segment ordinals within the current generation,
	// the block count since the last checkpoint, and the closed flag.
	wal             *walWriter
	ckptSeq         uint64
	txnGen          uint32
	segsPersisted   uint64
	blocksSinceCkpt int
	closed          bool
}

// Open creates an empty database after validating the options — the
// constructor for durable databases (and the error-returning form of
// New). With durability enabled the store must be empty: a store
// holding a checkpoint or WAL records is an existing database and must
// go through Recover, not be silently reinitialized (ErrNeedsRecovery).
func Open(opts Options) (*DB, error) { return OpenImage(nil, opts) }

// New creates an empty database with the given options. New does not
// validate (it predates Options.Validate and keeps the legacy clamping
// behavior); durable databases must use Open — New panics if
// Durability.Store is set, because it cannot report the store checks'
// errors.
func New(opts Options) *DB {
	if opts.Durability.enabled() {
		panic("engine: use Open for durable databases")
	}
	return newDB(opts)
}

// newDB builds the in-memory core shared by New, Open and Recover.
func newDB(opts Options) *DB {
	if opts.MaxRuleExecutions == 0 {
		opts.MaxRuleExecutions = 10000
	}
	if opts.Metrics != nil && opts.Support.Metrics == nil {
		opts.Support.Metrics = rules.NewSupportMetrics(opts.Metrics)
	}
	s := schema.New()
	db := &DB{
		clock:       clock.New(),
		schema:      s,
		store:       object.NewStore(s),
		support:     rules.NewSupport(nil, opts.Support),
		bodies:      make(map[string]Body),
		conds:       calculus.NewPlan(),
		opts:        opts,
		m:           newEngineMetrics(opts.Metrics),
		baseMetrics: event.NewBaseMetrics(opts.Metrics),
		latchM:      object.NewLatchMetrics(opts.Metrics),
	}
	// Publish the empty store as epoch 1 so BeginRead always has a
	// snapshot to pin, even before the first commit.
	db.publishAll(nil)
	return db
}

// Schema exposes the class catalog for definition and lookup.
func (db *DB) Schema() *schema.Schema { return db.schema }

// Store exposes the object store (read-only use outside transactions).
func (db *DB) Store() *object.Store { return db.store }

// Clock exposes the logical clock.
func (db *DB) Clock() *clock.Clock { return db.clock }

// Support exposes the Trigger Support (for statistics and inspection).
func (db *DB) Support() *rules.Support { return db.support }

// Stats reads the engine counters (the registry's, see Options.Metrics),
// one at a time: not a consistent cut while lines run.
func (db *DB) Stats() Stats {
	return Stats{
		Transactions:   db.m.transactions.Value(),
		Blocks:         db.m.blocks.Value(),
		Events:         db.m.events.Value(),
		RuleExecutions: db.m.executions.Value(),
		Considerations: db.m.considerations.Value(),
		ReadTxns:       db.m.readTxns.Value(),
		Conflicts:      db.m.conflicts.Value(),
		GasKills:       db.m.gasKills.Value(),
		DeadlineKills:  db.m.deadlineKills.Value(),
		EventLimitHits: db.m.eventLimitHits.Value(),
		RuleLimitHits:  db.m.ruleLimitHits.Value(),
	}
}

// Limits reports the database's configured resource bounds alongside the
// counters of transactions that hit them — the data behind the shell's
// `show limits`.
type Limits struct {
	GasLimit   int64
	TimeBudget time.Duration
	MaxEvents  int
	// MaxRuleExecutions is the per-transaction rule-cascade bound.
	MaxRuleExecutions int
	// Kill counters (see Stats).
	GasKills       int64
	DeadlineKills  int64
	EventLimitHits int64
	RuleLimitHits  int64
}

// Limits returns the configured resource bounds and kill counters.
func (db *DB) Limits() Limits {
	return Limits{
		GasLimit:          db.opts.GasLimit,
		TimeBudget:        db.opts.TimeBudget,
		MaxEvents:         db.opts.MaxEvents,
		MaxRuleExecutions: db.opts.MaxRuleExecutions,
		GasKills:          db.m.gasKills.Value(),
		DeadlineKills:     db.m.deadlineKills.Value(),
		EventLimitHits:    db.m.eventLimitHits.Value(),
		RuleLimitHits:     db.m.ruleLimitHits.Value(),
	}
}

// ActiveLines returns the number of open transaction lines.
func (db *DB) ActiveLines() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.active
}

// multiSession reports whether the database runs concurrent lines.
func (db *DB) multiSession() bool { return db.opts.MaxSessions > 1 }

// lockWait translates Options.LockWait into the line's wait budget
// (line semantics: 0 is a try-latch, positive a bound).
func (db *DB) lockWait() time.Duration {
	switch {
	case db.opts.LockWait < 0:
		return 0
	case db.opts.LockWait == 0:
		return 100 * time.Millisecond
	default:
		return db.opts.LockWait
	}
}

// walDDL frames and logs one DDL record (a no-op on the in-memory
// engine).
func (db *DB) walDDL(rec []byte) error {
	if db.wal == nil {
		return nil
	}
	_, err := db.wal.appendRun(wire.AppendFrame(nil, rec), 1)
	return err
}

// DefineClass registers a root class. Class DDL holds db.mu, like rule
// DDL, so a checkpoint's image and its log never disagree on a class.
func (db *DB) DefineClass(name string, attrs ...schema.Attribute) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.schema.Define(name, attrs...); err != nil {
		return err
	}
	return db.walDDL(encDefineClass(nil, name, "", attrs))
}

// DefineSubclass registers a class specializing parent.
func (db *DB) DefineSubclass(name, parent string, attrs ...schema.Attribute) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.schema.DefineSub(name, parent, attrs...); err != nil {
		return err
	}
	return db.walDDL(encDefineClass(nil, name, parent, attrs))
}

// DefineRule registers a trigger: its event expression and modes go to
// the Trigger Support, its condition and action are kept for
// consideration time, the condition's event formulas validated and
// interned into the condition plan. Rules may be defined at any time
// outside a transaction; an invalid rule leaves nothing behind.
func (db *DB) DefineRule(def rules.Def, body Body) error {
	// The check for open lines and the registry's mutation are one
	// critical section: a Begin cannot slip in between.
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.active > 0 {
		return errors.New("engine: cannot define rules inside a transaction")
	}
	for _, t := range eventClasses(def) {
		if _, ok := db.schema.Class(t); !ok {
			return fmt.Errorf("engine: rule %q mentions unknown class %q", def.Name, t)
		}
	}
	condition, err := body.Condition.Intern(db.conds)
	if err != nil {
		return fmt.Errorf("engine: rule %q condition: %w", def.Name, err)
	}
	if err := db.support.Define(def); err != nil {
		condition.Release()
		return err
	}
	body.Condition = condition
	db.bodies[def.Name] = body
	// Rules are logged as their concrete-syntax source: recovery replays
	// them through lang.ParseRule, the same front door a live definition
	// came through.
	return db.walDDL(encDefineRule(nil, RenderRule(def, body)))
}

func eventClasses(def rules.Def) []string {
	seen := make(map[string]bool)
	var out []string
	if def.Event == nil {
		return nil
	}
	for _, t := range calculus.Primitives(def.Event) {
		if t.Op == event.OpExternal {
			continue // signal names are free-form, not schema classes
		}
		if !seen[t.Class] {
			seen[t.Class] = true
			out = append(out, t.Class)
		}
	}
	return out
}

// DropRule removes a rule.
func (db *DB) DropRule(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.active > 0 {
		return errors.New("engine: cannot drop rules inside a transaction")
	}
	if err := db.support.Drop(name); err != nil {
		return err
	}
	db.bodies[name].Condition.Release()
	delete(db.bodies, name)
	return db.walDDL(encDropRule(nil, name))
}

// Txn is an open transaction line: a sequence of non-interruptible
// blocks followed by Commit or Rollback. In single-session mode it is
// the database's one open transaction; in multi-session mode up to
// Options.MaxSessions lines run concurrently, each on its own
// goroutine. A Txn itself is not safe for concurrent use. An ended Txn
// returns ErrNoTransaction: its work went back to the database, which
// hands it to a later line.
type Txn struct {
	db *DB
	// lineWork is what the line writes into, nil once the line ended.
	*lineWork
	// view is the line's Trigger Support session: its rules' marks.
	// finish releases it to the Support's idle pool and clears the
	// pointer, so a finished Txn never reaches a session another line
	// reuses.
	view  *rules.Session
	multi bool
	execs int
	done  bool
	// budget is the transaction's evaluation budget (nil = unlimited),
	// shared by the triggering determination and condition evaluation.
	// When it trips, the fault surfaces as a typed error from the
	// operation that crossed the limit, and the open block is refused.
	budget *calculus.Budget
	// tr is the tracer loaded at Begin: TransactionStart and
	// TransactionEnd go to the same one.
	tr Tracer
	// runRecs counts the staged run's records, runBlocks its block
	// records, toward CheckpointEvery.
	runRecs   int
	runBlocks int
	// sp is the last clean block boundary — Begin, or an EndLine that
	// returned nil: the line's undo length, the cascade guard and the
	// staged run there. The Event Base and the Trigger Support session
	// keep their own part of it (Savepoint, Rewind). refuse returns every
	// layer to it.
	sp struct {
		undo, execs             int
		run, runRecs, runBlocks int
		retention               clock.Time
	}
}

// lineWork is the storage a transaction line writes into: its Event
// Base, its object-store line, its condition context and its scratch.
// finish empties it and hands it to the database's idle pool, and the
// next Begin takes it from there, so a warm transaction allocates only
// what it writes. Emptied, each part holds no trace of the line before:
// the Base is as Registry.NewBase returns it, the object line as
// BeginLine does, and the buffers are empty. What a long line grew is
// trimmed: the Base and the object line keep what a short transaction
// uses (event.Base.Reset, object.Line), each buffer at most keptScratch
// bytes.
type lineWork struct {
	base *event.Base
	// line is the object-store session: solo (no latching, OID-reusing
	// undo) in single-session mode, latched in multi-session mode.
	line *object.Line
	// cctx is the line's condition context: its scratch recycles across
	// considerations and lines.
	cctx *cond.Ctx
	// pending is the open block's arrivals, by the type ids their appends
	// returned: what the block boundary announces to the line's session.
	pending []int32
	// Durable-mode block state: the current block's WAL op stream
	// (events, mutations, considerations in execution order — becomes
	// one record at the block boundary), a reused record-assembly
	// buffer, and the per-line set of event type ids already declared
	// (indexed by registry id).
	wrec     []byte
	recBuf   []byte
	markBuf  []firedMark
	walTypes []bool
	// Durable-mode run staging: the transaction's framed records, withheld
	// from the group committer until they are accepted — a single-session
	// line hands its run over at every savepoint, a multi-session line at
	// commit, under the commit latch (replay is commit-ordered, so racing
	// sessions must append whole runs in commit order). A refused block's
	// records are cut from the run; a multi-session rollback discards the
	// whole run, and the log never learns the transaction existed.
	runBuf []byte
	// walDecl lists the type ids whose declaration the staged records
	// since the savepoint carry: a refusal undeclares them.
	walDecl []int32
}

// keptScratch bounds, in bytes, the storage an ended line keeps of each
// of its buffers: a few short transactions' worth, so the transaction
// that seeds thousands of objects does not pin its peak in the pool.
const keptScratch = 4 << 10

// empty readies w for the next line once its line ended: the Base is
// reset, the condition context detached, the buffers emptied and
// trimmed. Nothing may read the Base afterwards; see DB.begin.
func (w *lineWork) empty() {
	w.base.Reset()
	w.cctx.Detach()
	w.pending = kept(w.pending, keptScratch/4)
	w.wrec = kept(w.wrec, keptScratch)
	w.recBuf = kept(w.recBuf, keptScratch)
	w.markBuf = kept(w.markBuf, keptScratch/24)
	w.walTypes = kept(w.walTypes, keptScratch)
	w.runBuf = kept(w.runBuf, keptScratch)
	w.walDecl = kept(w.walDecl, keptScratch/4)
}

// kept empties s, dropping what its entries refer to, and returns it for
// reuse, or nil when it has room for more than n entries.
func kept[T any](s []T, n int) []T {
	clear(s)
	if cap(s) > n {
		return nil
	}
	return s[:0]
}

// stageRec frames one record into the transaction's run buffer (durable
// mode). The frame copies rec, so the reused record-assembly buffers are
// safe to pass.
func (t *Txn) stageRec(rec []byte) {
	t.runBuf = wire.AppendFrame(t.runBuf, rec)
	t.runRecs++
}

// savepoint makes the line's state the one a refused block returns to:
// the undo entries since the last savepoint fold into the line's images,
// the Event Base and the session mark where they stand, and a
// single-session line hands its staged records to the group committer,
// counting its blocks toward CheckpointEvery — so a checkpoint is only
// ever cut here. In the steady state it allocates nothing; the fold
// costs what the block's mutations did. Append errors are sticky in the
// writer; Commit reports them.
func (t *Txn) savepoint() {
	t.sp.undo = t.line.Savepoint()
	t.base.Savepoint()
	t.view.Savepoint()
	t.sp.execs, t.sp.retention = t.execs, t.base.Retention()
	t.walDecl = t.walDecl[:0]
	if db := t.db; db.wal != nil && !t.multi && t.runRecs > 0 {
		if _, err := db.wal.appendRun(t.runBuf, t.runRecs); err == nil && t.runBlocks > 0 {
			db.blocksLogged(t.runBlocks, t)
		}
		t.runBuf, t.runRecs, t.runBlocks = t.runBuf[:0], 0, 0
	}
	t.sp.run, t.sp.runRecs, t.sp.runBlocks = len(t.runBuf), t.runRecs, t.runBlocks
}

// refuse rolls the open block back to the last savepoint: the object
// store, the Event Base and the marks are as they were there, the
// block's staged records are cut from the run, and the transaction stays
// open on the same line. What the block consumed stays consumed: clock
// ticks, a latched line's OIDs, the budget's gas, every counter. EIDs
// are dense, so the next occurrence takes the refused block's first,
// as replay numbers it. Refusing twice is refusing once.
func (t *Txn) refuse() {
	t.line.RollbackTo(t.sp.undo)
	t.base.Rewind()
	t.view.Rewind()
	t.pending = t.pending[:0]
	t.execs = t.sp.execs
	if t.db.wal != nil {
		t.wrec = t.wrec[:0]
		if w := t.base.Retention(); w != t.sp.retention {
			// A retention window is the line's setting, not the block's
			// work: it stays, and the next block logs it.
			t.wrec = encOpRetention(t.wrec, w)
		}
		t.runBuf, t.runRecs, t.runBlocks = t.runBuf[:t.sp.run], t.sp.runRecs, t.sp.runBlocks
		for _, tid := range t.walDecl {
			t.walTypes[tid] = false
		}
		t.walDecl = t.walDecl[:0]
	}
}

// Begin opens a transaction line. Its Event Base holds no occurrence
// (it is the log of occurrences "since the beginning of the
// transaction") and every rule's horizon resets to the transaction
// start. With Options.MaxSessions ≤ 1 at most one transaction is open at
// a time; above that, up to MaxSessions lines run concurrently. Either
// limit reports ErrTxnOpen.
func (db *DB) Begin() (*Txn, error) { return db.begin(db.clock.Now()) }

// begin opens a line at start. WAL replay passes each line's logged
// start, which in multi-session mode may lie behind the clock (a line
// open across a checkpoint, or one that began before a line that
// committed first).
//
// The line writes into the work of an ended line (lineWork), emptied:
// its Event Base is the one that ended line logged into, Reset. That is
// sound because nothing reads a Base once its line ended. Txn.Base
// returns nil then; the Trigger Support session and the condition
// context drop it at finish (rules.Session.Release, cond.Ctx.Detach);
// ChunkCols views live inside one sweep; ExportState frames are encoded
// inside the checkpoint that took them; the tracer is handed counts, the
// stream's published window a copy; and recovery's reopened line is an
// ordinary line from there on.
func (db *DB) begin(start clock.Time) (*Txn, error) {
	t := &Txn{db: db, multi: db.multiSession()}
	if db.opts.GasLimit > 0 || db.opts.TimeBudget > 0 {
		var deadline time.Time
		if db.opts.TimeBudget > 0 {
			deadline = time.Now().Add(db.opts.TimeBudget)
		}
		t.budget = calculus.NewBudget(db.opts.GasLimit, deadline)
	}

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	if t.multi {
		if db.active >= db.opts.MaxSessions {
			db.mu.Unlock()
			return nil, fmt.Errorf("%w: %d transaction lines active (MaxSessions %d)",
				ErrTxnOpen, db.active, db.opts.MaxSessions)
		}
	} else if db.txn != nil {
		db.mu.Unlock()
		return nil, ErrTxnOpen
	}
	db.openLine(t, start)
	if db.opts.Durability.enabled() && !t.multi {
		// The generation namespaces this transaction's persisted segment
		// ids; segment ordinals restart at zero with the empty base. The
		// bump happens during WAL replay too (wal is nil then), keeping
		// replay's generation arithmetic identical to the live run's.
		// Multi-session lines persist no segments (their checkpoints
		// carry no open transaction), so the generation stays put and a
		// checkpoint's value is the one replay ends on.
		db.txnGen++
		db.segsPersisted = 0
	}
	db.mu.Unlock()

	db.m.transactions.Inc()
	if t.tr = db.loadTracer(); t.tr != nil {
		t.tr.TransactionStart(start)
	}
	if db.wal != nil {
		t.recBuf = encBegin(t.recBuf[:0], start)
		t.stageRec(t.recBuf)
	}
	t.savepoint()
	if db.wal != nil {
		if err := db.wal.Err(); err != nil {
			t.rollback()
			return nil, err
		}
	}
	return t, nil
}

// openLine opens t's line at start — its Trigger Support session, its
// object-store line (solo in single-session mode, latched in
// multi-session mode) — in the work of an ended line, for Begin; and for
// recovery at a checkpoint's start, in work holding the restored Base.
// Work with no ended line behind it gets its parts here. db.mu is held.
func (db *DB) openLine(t *Txn, start clock.Time) {
	if t.lineWork == nil {
		if n := len(db.idle); n > 0 {
			t.lineWork = db.idle[n-1]
			db.idle[n-1] = nil
			db.idle = db.idle[:n-1]
		} else {
			t.lineWork = new(lineWork)
		}
	}
	if t.base == nil {
		t.base = db.types.NewBase(db.opts.SegmentSize)
	}
	if t.cctx == nil {
		t.cctx = new(cond.Ctx)
	}
	t.base.SetMetrics(db.baseMetrics)
	t.base.SetLimits(db.opts.MaxEvents)
	t.view = db.support.NewSession(t.base, start)
	t.view.SetBudget(t.budget)
	opts := object.LineOptions{Solo: true}
	if t.multi {
		opts = object.LineOptions{Wait: db.lockWait(), Metrics: db.latchM}
	} else {
		db.txn = t
	}
	if t.line == nil {
		t.line = db.store.BeginLine(opts)
	} else {
		t.line.Reopen(opts)
	}
	db.active++
	db.m.activeLines.Set(int64(db.active))
}

// log stamps and stores one occurrence (Event Handler duty). In durable
// mode it also encodes the occurrence into the block's WAL op stream —
// an in-memory append into a reused buffer, so the hot path stays
// allocation-free and never touches the store (the group committer
// drains record batches in the background). Any append error — past
// MaxEvents, or a type an Emit passed that Type.Valid rejects — refuses
// the open block: the operation is half done, and a stream's batch is
// refused whole.
func (t *Txn) log(ty event.Type, oid types.OID) error {
	ts := t.db.clock.Tick()
	tid, err := t.base.AppendTID(ty, oid, ts)
	if err != nil {
		t.refuse()
		return t.classify(err)
	}
	if t.db.wal != nil {
		t.walEvent(tid, ty, ts, oid)
	}
	t.pending = append(t.pending, tid)
	t.db.m.events.Inc()
	return nil
}

// walEvent appends one occurrence to the block op stream, declaring its
// type id on first use in this log.
func (t *Txn) walEvent(tid int32, ty event.Type, ts clock.Time, oid types.OID) {
	if n := len(t.walTypes); int(tid) >= n {
		t.walTypes = slices.Grow(t.walTypes, int(tid)+1-n)[:tid+1]
		clear(t.walTypes[n:])
	}
	if !t.walTypes[tid] {
		t.walTypes[tid] = true
		t.walDecl = append(t.walDecl, tid)
		t.wrec = encOpTypeDef(t.wrec, tid, ty)
	}
	t.wrec = encOpEvent(t.wrec, ts, tid, oid)
}

func (t *Txn) check() error {
	if t == nil || t.done {
		return ErrNoTransaction
	}
	if !t.multi && t.db.txn != t {
		return ErrNoTransaction
	}
	return nil
}

// conflict funnels every ErrConflict an operation reports, counting it.
func (t *Txn) conflict(err error) error {
	if errors.Is(err, object.ErrConflict) {
		t.db.m.conflicts.Inc()
	}
	return err
}

// classify funnels resource-limit errors into their kill counters; every
// budget or capacity error a transaction surfaces passes through here
// exactly once. Non-limit errors pass through untouched.
func (t *Txn) classify(err error) error {
	switch {
	case err == nil:
	case errors.Is(err, calculus.ErrGasExhausted):
		t.db.m.gasKills.Inc()
	case errors.Is(err, calculus.ErrDeadlineExceeded):
		t.db.m.deadlineKills.Inc()
	case errors.Is(err, event.ErrLimit):
		t.db.m.eventLimitHits.Inc()
	case errors.Is(err, ErrRuleLimit):
		t.db.m.ruleLimitHits.Inc()
	}
	return err
}

// Create instantiates an object and logs create(class).
func (t *Txn) Create(class string, vals map[string]types.Value) (types.OID, error) {
	if err := t.check(); err != nil {
		return types.NilOID, err
	}
	oid, err := t.line.Create(class, vals)
	if err != nil {
		return types.NilOID, t.conflict(err)
	}
	if t.db.wal != nil {
		// The allocated OID is logged so replay can verify the
		// deterministic allocator reproduced it.
		if t.wrec, err = encOpCreate(t.wrec, oid, class, vals); err != nil {
			return types.NilOID, err
		}
	}
	return oid, t.log(event.Create(class), oid)
}

// Modify updates one attribute and logs modify(class.attr).
func (t *Txn) Modify(oid types.OID, attr string, v types.Value) error {
	if err := t.check(); err != nil {
		return err
	}
	o, err := t.line.Fetch(oid)
	if err != nil {
		return t.conflict(err)
	}
	if err := t.line.Modify(oid, attr, v); err != nil {
		return t.conflict(err)
	}
	if t.db.wal != nil {
		var err error
		if t.wrec, err = encOpModify(t.wrec, oid, attr, v); err != nil {
			return err
		}
	}
	return t.log(event.Modify(o.Class().Name(), attr), oid)
}

// Delete removes an object and logs delete(class).
func (t *Txn) Delete(oid types.OID) error {
	if err := t.check(); err != nil {
		return err
	}
	o, err := t.line.Fetch(oid)
	if err != nil {
		return t.conflict(err)
	}
	class := o.Class().Name()
	if err := t.line.Delete(oid); err != nil {
		return t.conflict(err)
	}
	if t.db.wal != nil {
		t.wrec = encOpDelete(t.wrec, oid)
	}
	return t.log(event.Delete(class), oid)
}

// Specialize moves an object into a subclass and logs specialize(sub).
func (t *Txn) Specialize(oid types.OID, sub string) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.line.Specialize(oid, sub); err != nil {
		return t.conflict(err)
	}
	if t.db.wal != nil {
		t.wrec = encOpMigrate(t.wrec, opSpecialize, oid, sub)
	}
	return t.log(event.T(event.OpSpecialize, sub), oid)
}

// Generalize moves an object into a superclass and logs
// generalize(super).
func (t *Txn) Generalize(oid types.OID, super string) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.line.Generalize(oid, super); err != nil {
		return t.conflict(err)
	}
	if t.db.wal != nil {
		t.wrec = encOpMigrate(t.wrec, opGeneralize, oid, super)
	}
	return t.log(event.T(event.OpGeneralize, super), oid)
}

// Raise signals an external event (an extension beyond the paper,
// mirroring HiPAC's external events): it logs an external(signal)
// occurrence affecting no object. Rules listen with the same calculus —
// "events external(backup) + -modify(stock.quantity)".
func (t *Txn) Raise(signal string) error {
	if err := t.check(); err != nil {
		return err
	}
	if signal == "" {
		return errors.New("engine: empty signal name")
	}
	return t.log(event.External(signal), types.NilOID)
}

// Emit logs one occurrence of an arbitrary event type against oid
// (types.NilOID for events affecting no object) without touching the
// object store. It is the streaming ingest primitive: a stream session
// coalesces externally observed events — sensor readings, card swipes,
// telemetry — into micro-batches of Emits followed by one EndLine, so
// one trigger sweep and one WAL record serve the whole batch. Raise is
// Emit specialized to external signals. A type Type.Valid rejects, like
// a limit, refuses the open block.
func (t *Txn) Emit(ty event.Type, oid types.OID) error {
	if err := t.check(); err != nil {
		return err
	}
	return t.log(ty, oid)
}

// SetRetention declares a logical-time retention window on the
// transaction's Event Base (see event.Base.SetRetention): block-boundary
// compaction then retires occurrences older than window ticks behind the
// clock even when a dormant rule's watermark would pin them. Streaming
// sessions use it to keep steady-state memory flat on unbounded inputs;
// the cost is semantic and explicit — operators cannot see past the
// retention bound. In durable mode the window joins the block's op
// stream and checkpoints, so replay compacts at the same bound. The
// window is the line's setting: a refused block keeps it, and the next
// block logs it.
func (t *Txn) SetRetention(window clock.Time) error {
	if err := t.check(); err != nil {
		return err
	}
	t.base.SetRetention(window)
	if t.db.wal != nil {
		t.wrec = encOpRetention(t.wrec, window)
	}
	return nil
}

// SetBudget replaces the transaction's evaluation budget (nil = run
// unlimited). The engine installs the per-transaction budget from
// Options at Begin; a streaming session reinstalls a fresh budget per
// micro-batch so one poisoned batch trips ErrGasExhausted for that
// batch's sweep without condemning the whole long-lived session.
func (t *Txn) SetBudget(b *calculus.Budget) error {
	if err := t.check(); err != nil {
		return err
	}
	t.budget = b
	t.view.SetBudget(b)
	return nil
}

// ResetRuleGuard restarts the transaction's rule-cascade execution
// counter (Options.MaxRuleExecutions). Ordinary transactions never
// call this — the guard bounds the whole transaction. A streaming
// session calls it at micro-batch boundaries so the bound guards each
// batch's cascade instead of accumulating across a session that sweeps
// indefinitely many batches on one transaction line.
func (t *Txn) ResetRuleGuard() error {
	if err := t.check(); err != nil {
		return err
	}
	t.execs = 0
	return nil
}

// Select queries the live extension of a class and logs select(class)
// occurrences for the returned objects.
func (t *Txn) Select(class string) ([]types.OID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	oids, err := t.line.Select(class)
	if err != nil {
		return nil, t.conflict(err)
	}
	for _, oid := range oids {
		if err := t.log(event.T(event.OpSelect, class), oid); err != nil {
			return nil, err
		}
	}
	return oids, nil
}

// Get reads an object without generating events. In multi-session mode
// the read takes a shared latch on the OID, held to end of line.
func (t *Txn) Get(oid types.OID) (*object.Object, bool) {
	if err := t.check(); err != nil {
		return nil, false
	}
	return t.line.Get(oid)
}

// Base exposes the transaction's Event Base, for read-only use on the
// transaction's goroutine while the line is open: like the Txn, a Base
// has one owner, and once the line ends the database resets it for a
// later line. An ended Txn returns nil. Unless Options.DisableCompaction
// is set, windows reaching below every rule's horizon (the consumption
// low-watermark) may observe only the live remainder of the log —
// compaction retires segments no rule can see.
func (t *Txn) Base() *event.Base {
	if t.lineWork == nil {
		return nil
	}
	return t.base
}

// Marks snapshots every defined rule's triggering state on this line, in
// priority order: the consideration horizon, and the triggered flag with
// its activation instant.
func (t *Txn) Marks() ([]rules.Mark, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	return t.view.Marks(), nil
}

// EndLine closes the current non-interruptible block (a user transaction
// line): the Event Handler announces the block's occurrences, the
// Trigger Support determines newly triggered rules, and the engine
// considers and executes immediate rules until quiescence. Then, at the
// clean boundary, the Event Base compacts and the transaction records a
// savepoint.
//
// Any error from the sweep or the cascade — a §14 limit, a condition or
// action error, a latch conflict — refuses the block instead: the
// transaction returns to the last savepoint and stays open, and the
// caller may go on with the next block, commit what the accepted blocks
// did, or roll back (docs/SEMANTICS.md §7).
func (t *Txn) EndLine() error {
	if err := t.check(); err != nil {
		return err
	}
	err := t.flushBlock()
	if err == nil {
		err = t.processRules(func(d rules.Def) bool { return d.Coupling == rules.Immediate })
	}
	if err != nil {
		t.refuse()
		return err
	}
	t.compact()
	t.savepoint()
	return nil
}

// compact retires the Event Base segments below the consumption
// low-watermark. The clean block boundary is the one point where
// compaction is safe: no consideration window is in flight, so every
// occurrence at or below the watermark is unreachable by any future read
// (DESIGN.md §8), and no block a refusal may still rewind has begun, so
// a rewind never meets a retired segment.
func (t *Txn) compact() {
	db := t.db
	if db.opts.DisableCompaction {
		return
	}
	// The retention bound lifts the watermark for streaming sessions
	// (Txn.SetRetention); with no retention it is the watermark.
	now := db.clock.Now()
	wm := t.base.RetentionBound(t.view.Watermark(), now)
	db.m.watermarkAge.Set(int64(now - wm))
	tr := db.loadTracer()
	segsBefore := t.base.RetiredSegments()
	if retired := t.base.CompactBelow(wm); retired > 0 && tr != nil {
		tr.Compaction(retired, t.base.RetiredSegments()-segsBefore, wm)
	}
}

// flushBlock announces the pending occurrences and runs the triggering
// determination, and stages the block's WAL record.
//
// A transaction budget tripping mid-determination surfaces here as the
// typed error (ErrGasExhausted / ErrDeadlineExceeded). The error returns
// before the block record is staged, and the refusal that follows cuts
// the records its cascade staged since the savepoint: a refused block
// never reaches the log.
func (t *Txn) flushBlock() error {
	db := t.db
	tr := db.loadTracer()
	db.m.blocks.Inc()
	n := len(t.pending)
	db.m.blockEvents.Observe(int64(n))
	if tr != nil {
		tr.BlockStart(n)
	}
	t.view.NotifyArrivals(t.pending)
	t.pending = t.pending[:0]
	now := db.clock.Now()
	var examinedBefore int64
	if tr != nil {
		tr.SweepStart(now)
		examinedBefore = t.view.Stats().RulesExamined
	}
	var fired []string
	if err := calculus.CatchBudget(func() { fired = t.view.CheckTriggered(now) }); err != nil {
		return t.classify(fmt.Errorf("engine: triggering determination: %w", err))
	}
	if tr != nil {
		tr.SweepEnd(int(t.view.Stats().RulesExamined-examinedBefore), len(fired))
		for _, name := range fired {
			// The activation instant and the net effect behind it: the
			// occurrences of the rule's relevant window up to activation.
			// Read-only lookups — tracing must never perturb state.
			if m, ok := t.view.Mark(name); ok {
				tr.RuleTriggered(name, m.TriggeredAt,
					t.base.CountArrivals(m.LastConsideration, m.TriggeredAt))
			}
		}
	}
	if tr != nil {
		tr.BlockEnd(n, fired)
	}
	if db.wal != nil {
		t.walFlushBlock(now, fired)
	}
	return nil
}

// walFlushBlock turns the accumulated op stream into one block record
// and stages it in the transaction's run. Empty blocks (no ops, nothing
// fired) are skipped — they are semantically inert, and skipping them
// keeps idle EndLine calls off the log.
func (t *Txn) walFlushBlock(now clock.Time, fired []string) {
	if len(t.wrec) == 0 && len(fired) == 0 {
		return
	}
	var marks []firedMark
	if len(fired) > 0 {
		marks = t.markBuf[:0]
		for _, name := range fired {
			// The activation instant is recorded and restored verbatim:
			// recovery must not re-run the triggering determination (a
			// monotone rule's TriggeredAt is latched at first activation
			// and cannot be recomputed from a later probe).
			m, ok := t.view.Mark(name)
			if !ok {
				continue
			}
			marks = append(marks, firedMark{Rule: name, At: m.TriggeredAt})
		}
		t.markBuf = marks[:0]
	}
	rec := encBlock(t.recBuf[:0], now, marks, t.wrec)
	t.recBuf = rec
	t.wrec = t.wrec[:0]
	t.stageRec(rec)
	t.runBlocks++
}

// blocksLogged counts n logged block records toward CheckpointEvery and
// checkpoints once the cadence is reached. t is the open single-session
// transaction, at its savepoint; a commit passes nil under the commit
// latch, right after its run joined the log. Errors are sticky in the
// writer.
func (db *DB) blocksLogged(n int, t *Txn) {
	db.blocksSinceCkpt += n
	if every := db.dur().CheckpointEvery; every > 0 && db.blocksSinceCkpt >= every {
		db.mu.Lock()
		db.checkpointNow(t) //nolint:errcheck // sticky in the writer; Commit reports it
		db.mu.Unlock()
	}
}

// dur returns the durability options.
func (db *DB) dur() DurabilityOptions { return db.opts.Durability }

// processRules considers and executes triggered rules passing the filter,
// highest priority first, re-running the triggering determination after
// every rule action (itself a non-interruptible block), until no rule in
// scope is triggered.
func (t *Txn) processRules(filter func(rules.Def) bool) error {
	for {
		name, ok := t.view.Pick(filter)
		if !ok {
			return nil
		}
		if err := t.runRule(name); err != nil {
			return err
		}
	}
}

// runRule performs one consideration (and, if the condition holds, one
// set-oriented execution) of a rule.
func (t *Txn) runRule(name string) error {
	t.execs++
	if t.execs > t.db.opts.MaxRuleExecutions {
		return t.classify(fmt.Errorf("%w (%d executions; non-terminating rule set?)",
			ErrRuleLimit, t.execs-1))
	}
	at := t.db.clock.Tick()
	consideration, err := t.view.Consider(name, at)
	if err != nil {
		return err
	}
	if t.db.wal != nil {
		// The consideration joins the block op stream: it precedes the
		// action's ops in execution order, so replay advances the rule's
		// horizon at exactly the live instant.
		t.wrec = encOpConsider(t.wrec, name, at)
	}
	t.db.m.considerations.Inc()
	body := t.db.bodies[name]
	// The condition reads through the line, so in multi-session mode
	// every object and class extension it examines is latched shared to
	// end of line and the bindings stay stable.
	ctx := t.cctx
	ctx.Store, ctx.Base, ctx.Budget = t.line, t.base, t.budget
	ctx.Since, ctx.At = consideration.Since, consideration.At
	bindings, err := evalCondition(body, ctx)
	if err != nil {
		return t.classify(t.conflict(fmt.Errorf("engine: rule %q condition: %w", name, err)))
	}
	tr := t.db.loadTracer()
	if tr != nil {
		tr.Considered(name, consideration.Since, consideration.At, len(bindings))
	}
	if len(bindings) == 0 {
		// Condition not satisfied: the rule was considered and is
		// detriggered; nothing executes.
		return t.flushBlock()
	}
	t.db.m.executions.Inc()
	if err := body.Action.Exec(ctx, t, bindings); err != nil {
		return fmt.Errorf("engine: rule %q action: %w", name, err)
	}
	if tr != nil {
		tr.Executed(name)
	}
	// The action is a non-interruptible block; its occurrences are
	// announced at its end.
	return t.flushBlock()
}

// evalCondition runs one rule condition with a budget-fault boundary: a
// budget tripping inside the condition's calculus evaluations unwinds to
// here and converts into the typed error.
func evalCondition(body Body, ctx *cond.Ctx) (bindings []cond.Binding, err error) {
	defer calculus.RecoverBudget(&err)
	return body.Condition.Eval(ctx)
}

// Commit ends the transaction: any open block is closed, immediate rules
// run to quiescence, then the deferred rules suspended until commit are
// processed (their actions may re-trigger immediate rules, which are
// served first by the priority-ordered pick). On error the transaction
// rolls back.
//
// In multi-session mode Commit is the pipeline's serialization point:
// the deferred-rule phase and the publication of the line's writes (its
// latch release) happen under the database's commit latch, one line at
// a time in commit order, while everything before overlaps freely with
// other lines.
func (t *Txn) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	// The last block ends without a savepoint: nothing can return to it.
	var err error
	if len(t.pending) > 0 {
		err = t.flushBlock()
	}
	if err == nil {
		err = t.processRules(func(d rules.Def) bool { return d.Coupling == rules.Immediate })
	}
	if err != nil {
		t.rollback()
		return err
	}
	db := t.db
	db.lockCommit()
	if db.support.HasDeferred() {
		// The deferred-rule phase is the only rule work left: immediate
		// rules quiesced above and no new occurrence has arrived since,
		// so with zero deferred rules defined (stable while the line is
		// open — definitions are rejected mid-transaction) the phase is
		// skipped and the critical section shrinks to publication.
		if err := t.processRules(nil); err != nil { // immediate + deferred
			db.commitMu.Unlock()
			t.rollback()
			return err
		}
	}
	if db.wal != nil {
		// A committer in the failed state cannot make this commit durable;
		// refuse (and roll back) rather than silently diverge from the log.
		if err := db.wal.Err(); err != nil {
			db.commitMu.Unlock()
			t.rollback()
			return err
		}
	}
	// Stage the write set for snapshot publication before the line's
	// latches release: the exclusive latches pin the touched objects'
	// committed values, so the staging copies exactly what this commit
	// decided. Staging is O(write set); the shard rebuild is deferred to
	// the next BeginRead. The write set is captured first — line.Commit
	// discards the undo log it derives from.
	touched := t.line.TouchedOIDs()
	if len(touched) > 0 {
		db.store.StageTouched(touched)
		db.m.snapshotEpoch.Set(int64(db.store.PublishedEpoch()))
		db.m.publishedObjects.Add(int64(len(touched)))
	}
	t.line.Commit()
	// The commit record joins the log under the commit latch, so the
	// WAL's commit order always matches publication order — two racing
	// sessions can never log commits in the opposite order of their
	// epochs. Only the durability wait happens outside the latch.
	var commitLSN uint64
	var walErr error
	if db.wal != nil {
		t.stageRec(commitRec)
		if commitLSN, walErr = db.wal.appendRun(t.runBuf, t.runRecs); walErr == nil {
			db.blocksLogged(t.runBlocks, nil)
		}
	}
	db.commitMu.Unlock()
	t.finish()
	db.m.commits.Inc()
	if t.tr != nil {
		t.tr.TransactionEnd(true)
	}
	if db.wal != nil {
		err := walErr
		if err == nil && db.dur().Fsync == FsyncPerCommit {
			// Commits arriving while the committer syncs another's records
			// coalesce: one fsync covers every run enqueued before it, so N
			// concurrent sessions share a durability round (group commit).
			err = db.wal.waitDurable(commitLSN)
		}
		if err != nil {
			// The in-memory state committed; durability did not. Report it —
			// callers treating the database as durable must not proceed.
			return err
		}
	}
	return nil
}

// lockCommit acquires the commit latch, observing the wait on the
// chimera_engine_commit_wait_ns histogram exactly once per acquisition.
// Every path through Commit — publication, a failed deferred-rule
// phase's rollback, a failed WAL check — goes through this single
// acquisition, so a failed commit can never double-count its wait.
func (db *DB) lockCommit() {
	if db.m.commitWait == nil {
		db.commitMu.Lock()
		return
	}
	wait0 := time.Now()
	db.commitMu.Lock()
	db.m.commitWait.Observe(time.Since(wait0).Nanoseconds())
}

// Rollback aborts the transaction, undoing every mutation it performed.
func (t *Txn) Rollback() error {
	if err := t.check(); err != nil {
		return err
	}
	t.rollback()
	return nil
}

func (t *Txn) rollback() {
	t.line.Rollback()
	if t.db.wal != nil && !t.multi {
		// The unflushed block ops and the staged run never happened, as
		// far as the log is concerned: finish discards them. A
		// multi-session run never reached the committer, so that is the
		// whole rollback: replay only ever sees committed runs. A
		// single-session line handed its accepted blocks over, so it
		// records the rollback, framed into the emptied run buffer.
		t.runBuf = wire.AppendFrame(t.runBuf[:0], rollbackRec)
		t.db.wal.appendRun(t.runBuf, 1) //nolint:errcheck // sticky in the writer
	}
	t.finish()
	t.db.m.rollbacks.Inc()
	if t.tr != nil {
		t.tr.TransactionEnd(false)
	}
}

// finish retires the line, whose object-store line has ended: its
// Trigger Support session is released, its work emptied and handed to
// the idle pool, and the database's session bookkeeping updated.
func (t *Txn) finish() {
	t.view.Release()
	t.view = nil
	t.done = true
	db := t.db
	// Under db.mu, as Checkpoint reads the single-session line's work.
	db.mu.Lock()
	if db.txn == t {
		db.txn = nil
	}
	w := t.lineWork
	t.lineWork = nil
	w.empty()
	db.idle = append(db.idle, w)
	db.active--
	db.m.activeLines.Set(int64(db.active))
	db.mu.Unlock()
}

// Run executes fn inside a fresh transaction, ending the line after fn
// returns and committing; any error — or a panic inside fn — rolls
// back before Run returns (the panic then propagates).
func (db *DB) Run(fn func(*Txn) error) error {
	t, err := db.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if !t.done {
			t.rollback()
		}
	}()
	if err := fn(t); err != nil {
		return err
	}
	if t.done {
		return nil
	}
	return t.Commit()
}

// RuleBody returns the condition/action pair of a defined rule (the
// zero Body if the rule is unknown).
func (db *DB) RuleBody(name string) Body { return db.bodies[name] }
