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
// evaluation gas than Options.GasLimit allows. The transaction must be
// rolled back; the engine, its shared plan DAG and the WAL stay fully
// consistent and reusable. Aliases calculus.ErrGasExhausted so either
// package's sentinel matches with errors.Is.
var ErrGasExhausted = calculus.ErrGasExhausted

// ErrDeadlineExceeded is returned (wrapped) when a transaction's
// evaluation runs past Options.TimeBudget. Same contract as
// ErrGasExhausted; aliases calculus.ErrDeadlineExceeded.
var ErrDeadlineExceeded = calculus.ErrDeadlineExceeded

// ErrEventLimit is returned (wrapped) when an append would grow a
// transaction's Event Base past Options.MaxEvents/MaxSegments — the
// explicit error that replaces unbounded memory growth. Aliases
// event.ErrLimit.
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
	// wrapped ErrGasExhausted and must be rolled back; the engine and
	// its shared structures stay consistent (DESIGN.md §14).
	GasLimit int64
	// TimeBudget bounds a transaction's wall-clock evaluation time,
	// measured from Begin; 0 = unlimited. Exceeding it fails with a
	// wrapped ErrDeadlineExceeded under the same degradation contract
	// as GasLimit. The deadline is probed every few dozen node
	// evaluations, so the overshoot past the deadline is microseconds.
	TimeBudget time.Duration
	// MaxEvents bounds the live (retained, uncompacted) occurrences of
	// one transaction's Event Base; 0 = unlimited. An append past the
	// bound fails with a wrapped ErrEventLimit instead of growing
	// without limit — the guard against a transaction outrunning its
	// consumption watermark.
	MaxEvents int
	// MaxSegments bounds the live segments of one transaction's Event
	// Base (MaxSegments × SegmentSize occurrences, in coarser units);
	// 0 = unlimited. Same error and contract as MaxEvents.
	MaxSegments int
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
	// with DB.Snapshot. nil (the default) disables instrumentation
	// entirely: every report site reduces to one
	// branch-predictable nil check with no allocation and no atomic
	// operation, and the differential suite pins enabled vs disabled
	// runs to identical semantics (see DESIGN.md §9).
	Metrics *metrics.Registry
	// MaxSessions is how many transaction lines Begin admits at once.
	// 0 or 1 is the classic single-session engine: one open transaction,
	// no latching, bit-identical to the sequential reference. Above 1
	// each Begin opens an independent line — its own Event Base, its own
	// Trigger Support session, its own undo — and the object store
	// isolates the lines with per-OID/per-class latches (DESIGN.md §11).
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

// Validate checks the options for constructor use. Negative limits are
// rejected rather than silently clamped, and durability's structural
// requirement (automatic checkpoints only in single-session mode) is
// enforced up front — a misconfiguration must fail at Open, not at the
// first checkpoint.
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
	if o.MaxSegments < 0 {
		return fmt.Errorf("engine: negative MaxSegments %d", o.MaxSegments)
	}
	if o.Durability.enabled() {
		if o.MaxSessions > 1 && o.Durability.CheckpointEvery > 0 {
			// A multi-session checkpoint must capture only committed state,
			// but the live store holds other lines' uncommitted latched
			// writes; checkpoints are therefore explicit and idle-only
			// (DB.Checkpoint with no open lines), never automatic.
			return fmt.Errorf("engine: automatic checkpoints (CheckpointEvery %d) require single-session mode, MaxSessions is %d; use explicit DB.Checkpoint at idle",
				o.Durability.CheckpointEvery, o.MaxSessions)
		}
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

// statsCounters is the engine's internal, atomically-updated form of
// Stats: concurrent transaction lines bump them without a lock.
type statsCounters struct {
	transactions   atomic.Int64
	blocks         atomic.Int64
	events         atomic.Int64
	ruleExecutions atomic.Int64
	considerations atomic.Int64
	readTxns       atomic.Int64
	conflicts      atomic.Int64
	gasKills       atomic.Int64
	deadlineKills  atomic.Int64
	eventLimitHits atomic.Int64
	ruleLimitHits  atomic.Int64
}

// DB is a Chimera database: schema, object store, rule set, and the
// machinery to run transactions against them.
type DB struct {
	clock   *clock.Clock
	schema  *schema.Schema
	store   *object.Store
	support *rules.Support
	bodies  map[string]Body
	opts    Options
	stats   statsCounters
	tracer  Tracer

	// mu guards the session state: the single-session txn pointer and
	// the active-line count.
	mu     sync.Mutex
	txn    *Txn
	active int
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
func Open(opts Options) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	db := newDB(opts)
	if !opts.Durability.enabled() {
		return db, nil
	}
	ckpt, err := opts.Durability.Store.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	wal, err := opts.Durability.Store.WAL()
	if err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	if ckpt != nil || len(wal) > 0 {
		return nil, ErrNeedsRecovery
	}
	db.attachWAL()
	// The initial checkpoint stamps the store with sequence 1 and seeds
	// the WAL with its marker record, so a crash before the first
	// explicit checkpoint already recovers cleanly.
	if err := db.checkpointNow(nil); err != nil {
		db.wal.close()
		return nil, err
	}
	return db, nil
}

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
		opts:        opts,
		m:           newEngineMetrics(opts.Metrics),
		baseMetrics: event.NewBaseMetrics(opts.Metrics),
		latchM:      object.NewLatchMetrics(opts.Metrics),
	}
	// Publish the empty store as epoch 1 so BeginRead always has a
	// snapshot to pin, even before the first commit.
	db.store.PublishAll()
	db.m.snapshotEpoch.Set(int64(db.store.PublishedEpoch()))
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

// Stats returns a snapshot of the engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		Transactions:   db.stats.transactions.Load(),
		Blocks:         db.stats.blocks.Load(),
		Events:         db.stats.events.Load(),
		RuleExecutions: db.stats.ruleExecutions.Load(),
		Considerations: db.stats.considerations.Load(),
		ReadTxns:       db.stats.readTxns.Load(),
		Conflicts:      db.stats.conflicts.Load(),
		GasKills:       db.stats.gasKills.Load(),
		DeadlineKills:  db.stats.deadlineKills.Load(),
		EventLimitHits: db.stats.eventLimitHits.Load(),
		RuleLimitHits:  db.stats.ruleLimitHits.Load(),
	}
}

// Limits reports the database's configured resource bounds alongside the
// counters of transactions that hit them — the data behind the shell's
// `show limits`.
type Limits struct {
	GasLimit    int64
	TimeBudget  time.Duration
	MaxEvents   int
	MaxSegments int
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
		MaxSegments:       db.opts.MaxSegments,
		MaxRuleExecutions: db.opts.MaxRuleExecutions,
		GasKills:          db.stats.gasKills.Load(),
		DeadlineKills:     db.stats.deadlineKills.Load(),
		EventLimitHits:    db.stats.eventLimitHits.Load(),
		RuleLimitHits:     db.stats.ruleLimitHits.Load(),
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

// walDDL logs one DDL record (a no-op on the in-memory engine).
func (db *DB) walDDL(rec []byte) error {
	if db.wal == nil {
		return nil
	}
	_, err := db.wal.append(rec)
	return err
}

// DefineClass registers a root class.
func (db *DB) DefineClass(name string, attrs ...schema.Attribute) error {
	if _, err := db.schema.Define(name, attrs...); err != nil {
		return err
	}
	return db.walDDL(encDefineClass(nil, name, "", attrs))
}

// DefineSubclass registers a class specializing parent.
func (db *DB) DefineSubclass(name, parent string, attrs ...schema.Attribute) error {
	if _, err := db.schema.DefineSub(name, parent, attrs...); err != nil {
		return err
	}
	return db.walDDL(encDefineClass(nil, name, parent, attrs))
}

// DefineRule registers a trigger: its event expression and modes go to
// the Trigger Support, its condition and action are kept for
// consideration time. Rules may be defined at any time outside a
// transaction.
func (db *DB) DefineRule(def rules.Def, body Body) error {
	db.mu.Lock()
	open := db.txn != nil || db.active > 0
	db.mu.Unlock()
	if open {
		return errors.New("engine: cannot define rules inside a transaction")
	}
	for _, t := range eventClasses(def) {
		if _, ok := db.schema.Class(t); !ok {
			return fmt.Errorf("engine: rule %q mentions unknown class %q", def.Name, t)
		}
	}
	if err := db.support.Define(def); err != nil {
		return err
	}
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
	for _, t := range defPrimitives(def) {
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

func defPrimitives(def rules.Def) []event.Type {
	if def.Event == nil {
		return nil
	}
	return calculusPrimitives(def)
}

// DropRule removes a rule.
func (db *DB) DropRule(name string) error {
	db.mu.Lock()
	open := db.txn != nil || db.active > 0
	db.mu.Unlock()
	if open {
		return errors.New("engine: cannot drop rules inside a transaction")
	}
	if err := db.support.Drop(name); err != nil {
		return err
	}
	delete(db.bodies, name)
	return db.walDDL(encDropRule(nil, name))
}

// Txn is an open transaction line: a sequence of non-interruptible
// blocks followed by Commit or Rollback. In single-session mode it is
// the database's one open transaction; in multi-session mode up to
// Options.MaxSessions lines run concurrently, each on its own
// goroutine. A Txn itself is not safe for concurrent use.
type Txn struct {
	db   *DB
	base *event.Base
	// view is the line's Trigger Support state: the shared Support
	// itself in single-session mode (the classic Rebind dance), a
	// private rules.Session in multi-session mode.
	view rules.View
	// line is the object-store session: solo (no latching, OID-reusing
	// undo) in single-session mode, latched in multi-session mode.
	line    *object.Line
	multi   bool
	pending []event.Occurrence
	execs   int
	done    bool
	// budget is the transaction's evaluation budget (nil = unlimited),
	// shared by the triggering determination and condition evaluation.
	// When it trips, the fault surfaces as a typed error from the
	// operation that crossed the limit and the transaction must be
	// rolled back.
	budget *calculus.Budget
	// cctx is the condition context of the running consideration; one per
	// line, so its evaluation scratch recycles across considerations.
	cctx cond.Ctx
	// Durable-mode block state: the current block's WAL op stream
	// (events, mutations, considerations in execution order — becomes
	// one record at the block boundary), a reused record-assembly
	// buffer, and the per-log set of event type ids already declared
	// (indexed by interned id).
	wrec     []byte
	recBuf   []byte
	markBuf  []firedMark
	walTypes []bool
	// Multi-session durable-mode run staging: the transaction's framed
	// begin and block records, withheld from the group committer until
	// commit. The WAL must stay a serial stream of whole per-transaction
	// runs in commit order (replay is commit-ordered), so racing sessions
	// cannot append block records directly; each stages its run privately
	// and hands it over in one appendRun under the commit latch. A
	// rollback simply discards the staged run — the log never learns the
	// transaction existed.
	runBuf  []byte
	runRecs int
}

// stageRec frames one record into the transaction's private run buffer
// (multi-session durable mode). The frame copies rec, so the reused
// record-assembly buffers are safe to pass.
func (t *Txn) stageRec(rec []byte) {
	t.runBuf = wire.AppendFrame(t.runBuf, rec)
	t.runRecs++
}

// Begin opens a transaction line. The Event Base starts empty (it is
// the log of occurrences "since the beginning of the transaction") and
// every rule's horizon resets to the transaction start. With
// Options.MaxSessions ≤ 1 at most one transaction is open at a time;
// above that, up to MaxSessions lines run concurrently. Either limit
// reports ErrTxnOpen.
func (db *DB) Begin() (*Txn, error) {
	base := event.NewBaseSize(db.opts.SegmentSize)
	base.SetMetrics(db.baseMetrics)
	base.SetLimits(db.opts.MaxEvents, db.opts.MaxSegments)
	t := &Txn{db: db, base: base, multi: db.multiSession()}
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
		t.view = db.support.NewSession(base, db.clock.Now())
		t.line = db.store.BeginLine(object.LineOptions{
			Wait:    db.lockWait(),
			Metrics: db.latchM,
		})
	} else {
		if db.txn != nil {
			db.mu.Unlock()
			return nil, ErrTxnOpen
		}
		db.support.Rebind(base)
		db.support.BeginTransaction(db.clock.Now())
		t.view = db.support
		t.line = db.store.BeginLine(object.LineOptions{Solo: true})
		db.txn = t
	}
	db.active++
	db.m.activeLines.Set(int64(db.active))
	if db.opts.Durability.enabled() {
		// The generation namespaces this transaction's persisted segment
		// ids; segment ordinals restart at zero with the fresh base. The
		// bump happens during WAL replay too (wal is nil then), keeping
		// replay's generation arithmetic identical to the live run's. It
		// lives under db.mu because concurrent multi-session Begins race
		// on it (the generation is unused there — multi-session
		// checkpoints are idle-only — but the counter must stay sane).
		db.txnGen++
		db.segsPersisted = 0
	}
	db.mu.Unlock()

	// Install the line's budget unconditionally: the single-session view
	// is the shared Support, so a nil install clears any budget left by a
	// previous transaction.
	t.view.SetBudget(t.budget)

	db.stats.transactions.Add(1)
	db.m.transactions.Inc()
	if db.tracer != nil {
		db.tracer.TransactionStart(db.clock.Now())
	}
	if db.wal != nil {
		if t.multi {
			t.stageRec(encBegin(nil, db.clock.Now()))
		} else if _, err := db.wal.append(encBegin(nil, db.clock.Now())); err != nil {
			t.rollback()
			return nil, err
		}
	}
	return t, nil
}

// log stamps and stores one occurrence (Event Handler duty). In durable
// mode it also encodes the occurrence into the block's WAL op stream —
// an in-memory append into a reused buffer, so the hot path stays
// allocation-free and never touches the store (the group committer
// drains record batches in the background).
func (t *Txn) log(ty event.Type, oid types.OID) error {
	ts := t.db.clock.Tick()
	if t.db.wal != nil {
		occ, tid, err := t.base.AppendTID(ty, oid, ts)
		if err != nil {
			return t.classify(err)
		}
		t.walEvent(tid, ty, ts, oid)
		t.pending = append(t.pending, occ)
	} else {
		occ, err := t.base.Append(ty, oid, ts)
		if err != nil {
			return t.classify(err)
		}
		t.pending = append(t.pending, occ)
	}
	t.db.stats.events.Add(1)
	t.db.m.events.Inc()
	return nil
}

// walEvent appends one occurrence to the block op stream, declaring its
// interned type id on first use in this log.
func (t *Txn) walEvent(tid int32, ty event.Type, ts clock.Time, oid types.OID) {
	if int(tid) >= len(t.walTypes) {
		t.walTypes = append(t.walTypes, make([]bool, int(tid)+1-len(t.walTypes))...)
	}
	if !t.walTypes[tid] {
		t.walTypes[tid] = true
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
		t.db.stats.conflicts.Add(1)
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
		t.db.stats.gasKills.Add(1)
		t.db.m.gasKills.Inc()
	case errors.Is(err, calculus.ErrDeadlineExceeded):
		t.db.stats.deadlineKills.Add(1)
		t.db.m.deadlineKills.Inc()
	case errors.Is(err, event.ErrLimit):
		t.db.stats.eventLimitHits.Add(1)
		t.db.m.eventLimitHits.Inc()
	case errors.Is(err, ErrRuleLimit):
		t.db.stats.ruleLimitHits.Add(1)
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
// Emit specialized to external signals.
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
// retention bound.
func (t *Txn) SetRetention(window clock.Time) error {
	if err := t.check(); err != nil {
		return err
	}
	t.base.SetRetention(window)
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

// Base exposes the transaction's Event Base (read-only use). Unless
// Options.DisableCompaction is set, windows reaching below every rule's
// horizon (the consumption low-watermark) may observe only the live
// remainder of the log — compaction retires segments no rule can see.
func (t *Txn) Base() *event.Base { return t.base }

// EndLine closes the current non-interruptible block (a user transaction
// line): the Event Handler announces the block's occurrences, the
// Trigger Support determines newly triggered rules, and the engine
// considers and executes immediate rules until quiescence.
func (t *Txn) EndLine() error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.flushBlock(); err != nil {
		return err
	}
	return t.processRules(func(d rules.Def) bool { return d.Coupling == rules.Immediate })
}

// flushBlock announces the pending occurrences and runs the triggering
// determination, then retires Event Base segments below the consumption
// low-watermark. The block boundary is the one point where compaction is
// safe: no consideration window is in flight (runRule finishes reading
// its window — condition and action — before flushing the action's
// block), so every occurrence at or below the watermark is unreachable
// by any future read. See DESIGN.md §8.
//
// A transaction budget tripping mid-determination surfaces here as the
// typed error (ErrGasExhausted / ErrDeadlineExceeded). The error returns
// before compaction and before the block record reaches the WAL: the
// killed block's ops stay unlogged, so a subsequent rollback leaves the
// log exactly as if the block never ran.
func (t *Txn) flushBlock() error {
	db := t.db
	tr := db.tracer
	db.stats.blocks.Add(1)
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
	if !db.opts.DisableCompaction {
		// The retention bound lifts the watermark for streaming sessions
		// (Txn.SetRetention); with no retention it is the watermark.
		wm := t.base.RetentionBound(t.view.Watermark(), now)
		db.m.watermarkAge.Set(int64(now - wm))
		segsBefore := 0
		if tr != nil {
			segsBefore = t.base.RetiredSegments()
		}
		if retired := t.base.CompactBelow(wm); retired > 0 && tr != nil {
			tr.Compaction(retired, t.base.RetiredSegments()-segsBefore, wm)
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
// and hands it to the group committer. Empty blocks (no ops, nothing
// fired) are skipped — they are semantically inert, and skipping them
// keeps idle EndLine calls off the log. Append errors are sticky in the
// writer and surface at Commit; a failed log must not corrupt the
// in-memory run.
func (t *Txn) walFlushBlock(now clock.Time, fired []string) {
	db := t.db
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
	if t.multi {
		// Concurrent lines stage their block records privately; the whole
		// run reaches the committer at commit. Automatic checkpoints are
		// disabled in multi-session mode (Options.Validate), so no
		// block-count bookkeeping happens here either.
		t.stageRec(rec)
		return
	}
	if _, err := db.wal.append(rec); err != nil {
		return // sticky; Commit reports it
	}
	db.blocksSinceCkpt++
	if every := db.dur().CheckpointEvery; every > 0 && db.blocksSinceCkpt >= every {
		db.checkpointNow(t) //nolint:errcheck // sticky in the writer; Commit reports it
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
	t.db.stats.considerations.Add(1)
	t.db.m.considerations.Inc()
	body := t.db.bodies[name]
	// The condition reads through the line, so in multi-session mode
	// every object and class extension it examines is latched shared to
	// end of line and the bindings stay stable.
	ctx := &t.cctx
	ctx.Store, ctx.Base, ctx.Budget = t.line, t.base, t.budget
	ctx.Since, ctx.At = consideration.Since, consideration.At
	bindings, err := evalCondition(body, ctx)
	if err != nil {
		return t.classify(t.conflict(fmt.Errorf("engine: rule %q condition: %w", name, err)))
	}
	if t.db.tracer != nil {
		t.db.tracer.Considered(name, consideration.Since, consideration.At, len(bindings))
	}
	if len(bindings) == 0 {
		// Condition not satisfied: the rule was considered and is
		// detriggered; nothing executes.
		return t.flushBlock()
	}
	t.db.stats.ruleExecutions.Add(1)
	t.db.m.executions.Inc()
	if err := body.Action.Exec(ctx, (*txnMutator)(t), bindings); err != nil {
		return fmt.Errorf("engine: rule %q action: %w", name, err)
	}
	if t.db.tracer != nil {
		t.db.tracer.Executed(name)
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

// txnMutator adapts Txn to act.Mutator.
type txnMutator Txn

func (m *txnMutator) Create(class string, vals map[string]types.Value) (types.OID, error) {
	return (*Txn)(m).Create(class, vals)
}
func (m *txnMutator) Modify(oid types.OID, attr string, v types.Value) error {
	return (*Txn)(m).Modify(oid, attr, v)
}
func (m *txnMutator) Delete(oid types.OID) error { return (*Txn)(m).Delete(oid) }
func (m *txnMutator) Specialize(oid types.OID, sub string) error {
	return (*Txn)(m).Specialize(oid, sub)
}
func (m *txnMutator) Generalize(oid types.OID, super string) error {
	return (*Txn)(m).Generalize(oid, super)
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
	if len(t.pending) > 0 {
		if err := t.EndLine(); err != nil {
			t.rollback()
			return err
		}
	}
	if err := t.processRules(func(d rules.Def) bool { return d.Coupling == rules.Immediate }); err != nil {
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
		if t.multi {
			t.stageRec([]byte{recCommit})
			commitLSN, walErr = db.wal.appendRun(t.runBuf, t.runRecs)
		} else {
			commitLSN, walErr = db.wal.append([]byte{recCommit})
		}
	}
	db.commitMu.Unlock()
	if !t.multi {
		// The legacy contract: a successful commit discards the global
		// undo history, including entries from direct store use outside
		// any transaction.
		db.store.DiscardUndo()
	}
	t.finish()
	db.m.commits.Inc()
	if t.db.tracer != nil {
		t.db.tracer.TransactionEnd(true)
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
	touched := t.line.TouchedOIDs()
	t.line.Rollback()
	if !t.multi && len(touched) > 0 {
		// A solo line mutates the shared store in place, and recovery can
		// publish mid-transaction state (Recover returns an interrupted
		// transaction live after a full-store publication): restage the
		// restored committed values so the snapshot never retains writes
		// the rollback undid. In ordinary operation this restages
		// identical values — uncommitted writes never reach a snapshot.
		// Multi-session lines skip it: their writes were latched private
		// and never staged, and staging is reserved to commits holding
		// the commit latch.
		t.db.store.StageTouched(touched)
		t.db.m.snapshotEpoch.Set(int64(t.db.store.PublishedEpoch()))
	}
	t.finish()
	t.db.m.rollbacks.Inc()
	if t.db.tracer != nil {
		t.db.tracer.TransactionEnd(false)
	}
	if t.db.wal != nil {
		// Discard the unflushed block ops (they never happened, as far as
		// the log is concerned) and record the rollback.
		t.wrec = t.wrec[:0]
		if t.multi {
			// The staged run never reached the committer: discarding it is
			// the whole rollback, and the log never learns the transaction
			// existed (replay only ever sees committed runs).
			t.runBuf = t.runBuf[:0]
			t.runRecs = 0
		} else {
			t.db.wal.append([]byte{recRollback}) //nolint:errcheck // sticky in the writer
		}
	}
}

// finish retires the line: its Trigger Support session is released and
// the database's session bookkeeping updated.
func (t *Txn) finish() {
	// Clear the budget before the view outlives the transaction: the
	// single-session view is the shared Support, and a stale budget must
	// not charge (or kill) work done between transactions.
	t.view.SetBudget(nil)
	if sess, ok := t.view.(*rules.Session); ok {
		sess.Release()
	}
	t.done = true
	t.db.mu.Lock()
	if t.db.txn == t {
		t.db.txn = nil
	}
	t.db.active--
	t.db.m.activeLines.Set(int64(t.db.active))
	t.db.mu.Unlock()
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
// zero Body if the rule is unknown). Snapshotting uses it to re-render
// rules to source.
func (db *DB) RuleBody(name string) Body { return db.bodies[name] }
