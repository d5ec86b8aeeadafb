// Package rules implements Chimera's rule-side machinery: rule
// definitions (triggering event expression, EC coupling mode, event
// consumption mode, priority, optional class target), the Rule Table of
// Section 5 (hash access plus a priority queue), and the Trigger Support
// that maintains each rule's internal state — last consideration, last
// consumption, triggered flag — and decides triggering with the event
// calculus.
//
// That state exists for one transaction (Section 5: every horizon resets
// when a transaction starts), so it lives on the transaction's line, a
// Session: one mark per rule, the block-boundary index over the marks
// and the check's scratch. The Support holds what every line reads — the
// definitions, V(E) filters, the interned plan and the arrival table,
// keyed by the type ids of the registry every line's Event Base shares —
// once, and recycles released Sessions for the lines after them.
//
// The Trigger Support decides T(r, t) of Section 4.4 one way. Every
// rule's event expression is interned into one shared DAG
// (calculus.Plan). At a block boundary the rules to examine — by the
// V(E) filter of Section 5.1, only those a relevant arrival reached —
// are decided together in one walk of the check's arrivals through the
// interned-id columns of the Event Base: the prefix of the arrival
// table's list for each arrival hands it the undecided non-monotone
// rules it can activate (Δ+ or Δ± in their V(E)), and each of them
// probes ts(E, t') there; every rule probes the check instant last. One
// memoized evaluator (calculus.PlanEval) serves the whole walk, its memo
// shared by every rule whatever its consideration horizon. The same
// evaluator answers the conditions' event formulas and the shell's
// explain. The recursive calculus.Env is the definition it is held to:
// the tests keep the per-rule determination over it as the oracle.
//
// # Concurrency
//
// Support is safe for concurrent use. Define and Drop take the mutex
// exclusively; read-only operations (Rule, Rules, Stats, Plan,
// HasDeferred) take it shared, so inspection never serializes against
// other readers. Every transaction runs on its own Session — a line that
// holds only its rules' marks and the check's scratch — and a
// determination runs on the calling goroutine, so lines of different
// Sessions run theirs in parallel, sharing only the registry (frozen
// while any Session is open) and the Event Base's read paths. See
// DESIGN.md §7 for the lock hierarchy.
package rules

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/metrics"
)

// Coupling is the Event-Condition coupling mode of Section 2.
type Coupling int

const (
	// Immediate rules are considered as soon as possible after the end of
	// the non-interruptible block that triggered them.
	Immediate Coupling = iota
	// Deferred rules are suspended until the commit command.
	Deferred
)

// String returns the Chimera keyword for the coupling mode.
func (c Coupling) String() string {
	if c == Deferred {
		return "deferred"
	}
	return "immediate"
}

// Consumption is the event-consumption mode of Section 2.
type Consumption int

const (
	// Consuming rules expose to event formulas only occurrences more
	// recent than the rule's last consideration.
	Consuming Consumption = iota
	// Preserving rules expose every occurrence since the beginning of the
	// transaction.
	Preserving
)

// String returns the Chimera keyword for the consumption mode.
func (c Consumption) String() string {
	if c == Preserving {
		return "preserving"
	}
	return "consuming"
}

// Def is a rule definition as far as triggering is concerned. Conditions
// and actions live in the engine; the Trigger Support only needs the
// event expression and the modes.
type Def struct {
	Name string
	// Target optionally scopes the rule to one class: every primitive
	// event type in Event must then be on that class.
	Target string
	// Event is the triggering event expression.
	Event calculus.Expr
	// Coupling selects immediate or deferred consideration.
	Coupling Coupling
	// Consumption selects the event-formula window.
	Consumption Consumption
	// Priority orders triggered rules; smaller numbers are served first,
	// ties resolve by name for determinism.
	Priority int
}

// Validate checks the definition.
func (d Def) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("rules: rule without a name")
	}
	if d.Event == nil {
		return fmt.Errorf("rules: rule %q has no event expression", d.Name)
	}
	if err := calculus.Valid(d.Event); err != nil {
		return fmt.Errorf("rules: rule %q: %w", d.Name, err)
	}
	if d.Target != "" {
		for _, t := range calculus.Primitives(d.Event) {
			if t.Class != d.Target {
				return fmt.Errorf("rules: rule %q is targeted to %q but mentions %v",
					d.Name, d.Target, t)
			}
		}
	}
	return nil
}

// State is a defined rule as the registry holds it: the definition, the
// compiled V(E) filter and the rule's place in the shared plan and the
// priority queue. It is stored once per Support, whatever the number of
// transaction lines; what a line changes per rule is its Mark.
//
// The copies returned by Support.Rule share the Filter pointer with the
// live support: a Filter is immutable after calculus.Compile, so the
// aliasing is read-only by construction.
type State struct {
	Def Def
	// Filter is the compiled V(E) filter. It is immutable once built —
	// treat the pointer as a shared read-only view.
	Filter *calculus.Filter

	// rank is the rule's position in the priority queue
	// (Support.ordered): the index of its mark on every line and the
	// coordinate of every line's block-boundary index. Define and Drop
	// renumber the rules after the slot they change.
	rank int32
	// monotone marks negation-free expressions, whose activation never
	// reverts as time grows: once ts(E, t') turns positive it stays
	// positive at every later probe, so the ∃t' quantifier collapses to a
	// single ts evaluation at the check instant. (Negation introduces the
	// only downward sign transitions; conjunction, disjunction and
	// precedence over negation-free operands are all monotone in the
	// growing prefix of R.)
	monotone bool
	// planRoot is the rule's root node in the support's interned DAG.
	planRoot calculus.NodeID
}

// mark is one rule's state on one line: the paper's per-rule record of
// Section 5 (last consideration, triggered flag) plus the incremental
// probe cursor and the pending bit.
type mark struct {
	lastConsideration clock.Time
	triggeredAt       clock.Time
	// lastProbe is the newest instant already examined by the ∃t' probe;
	// earlier instants can never yield a new outcome.
	lastProbe clock.Time
	triggered bool
	// pending is set when an arrival relevant per the filter has been
	// seen since the last probe.
	pending bool
}

// Options configures a Support.
type Options struct {
	// Metrics, when non-nil, is the instrument set the support reports
	// into. Reporting happens in bulk at the end of each CheckTriggered
	// (counter deltas, not per-rule atomics), so the enabled path adds a
	// constant cost per block boundary; a nil set costs one predictable
	// branch. Instrumentation never changes outcomes — the differential
	// suite in internal/engine pins metrics-on vs metrics-off runs to
	// identical triggerings and database states.
	Metrics *SupportMetrics
}

// Stats counts the work the Trigger Support performed; RulesSkipped
// against RulesExamined is the effect of the static optimization.
type Stats struct {
	// Checks counts CheckTriggered calls (block boundaries).
	Checks int64
	// RulesExamined counts per-rule triggering examinations: every rule
	// that is not triggered when a check starts is examined by it. The
	// check does not visit them to count them — the figure is defined
	// rules minus triggered rules, read off the line's index.
	RulesExamined int64
	// RulesSkipped counts examined rules the V(E) filter settled without
	// a ts evaluation: examined minus the check's batch (the pending
	// rules).
	RulesSkipped int64
	// TsEvaluations counts node evaluations of the shared plan: set-level
	// ts, per-object ots and lift folds actually computed. It equals
	// MemoMisses.
	TsEvaluations int64
	// MemoHits and MemoMisses count memo lookups of the shared plan's
	// evaluator: a hit is a node result served from the per-probe memo
	// instead of recomputed, a miss a node actually evaluated.
	MemoHits   int64
	MemoMisses int64
	// Triggerings counts transitions into the triggered state.
	Triggerings int64
}

// SupportMetrics is the Trigger Support's instrument set. A nil
// *SupportMetrics disables reporting.
type SupportMetrics struct {
	Checks        *metrics.Counter
	RulesExamined *metrics.Counter
	RulesSkipped  *metrics.Counter
	TsEvals       *metrics.Counter
	Triggerings   *metrics.Counter
	// MemoHits/MemoMisses count shared-plan memo lookups; PlanNodes and
	// PlanShared gauge the interned DAG (live nodes, nodes referenced by
	// more than one parent) after each check.
	MemoHits   *metrics.Counter
	MemoMisses *metrics.Counter
	PlanNodes  *metrics.Gauge
	PlanShared *metrics.Gauge
	// BatchRules observes the pending-rule batch per check.
	BatchRules *metrics.Histogram
}

// NewSupportMetrics resolves the Trigger Support instruments from a
// registry; a nil registry yields nil (reporting disabled).
func NewSupportMetrics(r *metrics.Registry) *SupportMetrics {
	if r == nil {
		return nil
	}
	return &SupportMetrics{
		Checks:        r.Counter("chimera_trigger_checks_total"),
		RulesExamined: r.Counter("chimera_trigger_rules_examined_total"),
		RulesSkipped:  r.Counter("chimera_trigger_rules_skipped_total"),
		TsEvals:       r.Counter("chimera_trigger_ts_evals_total"),
		Triggerings:   r.Counter("chimera_trigger_triggerings_total"),
		BatchRules: r.Histogram("chimera_trigger_batch_rules",
			1, 4, 16, 64, 256, 1024, 4096),
		MemoHits:   r.Counter("chimera_plan_memo_hits_total"),
		MemoMisses: r.Counter("chimera_plan_memo_misses_total"),
		PlanNodes:  r.Gauge("chimera_plan_nodes"),
		PlanShared: r.Gauge("chimera_plan_shared_nodes"),
	}
}

// report publishes the delta between two Stats snapshots plus the batch
// size of one check and the plan's shape. Called once per CheckTriggered
// with the line's lock held; all instrument writes are atomic and
// allocation-free.
func (m *SupportMetrics) report(before, after Stats, batch int, plan *calculus.Plan) {
	if m == nil {
		return
	}
	m.Checks.Inc()
	m.RulesExamined.Add(after.RulesExamined - before.RulesExamined)
	m.RulesSkipped.Add(after.RulesSkipped - before.RulesSkipped)
	m.TsEvals.Add(after.TsEvaluations - before.TsEvaluations)
	m.MemoHits.Add(after.MemoHits - before.MemoHits)
	m.MemoMisses.Add(after.MemoMisses - before.MemoMisses)
	m.Triggerings.Add(after.Triggerings - before.Triggerings)
	m.BatchRules.Observe(int64(batch))
	m.PlanNodes.Set(int64(plan.Live()))
	m.PlanShared.Set(int64(plan.Shared()))
}

// add accumulates a released session's counters into the receiver.
func (s *Stats) add(o Stats) {
	s.Checks += o.Checks
	s.RulesExamined += o.RulesExamined
	s.RulesSkipped += o.RulesSkipped
	s.TsEvaluations += o.TsEvaluations
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.Triggerings += o.Triggerings
}

// line is the state of one transaction line's triggering determination:
// the bound Event Base, one mark per defined rule (by rank), the
// block-boundary index, work counters and all check-path scratch. It
// holds nothing else: definitions, filters, plan roots, ranks and the
// listening index are the Support's, read by every line. Every
// transaction of the engine runs on a Session's line; the Support embeds
// one more, its direct line, for the callers of the Support's own
// determination API.
//
// The block-boundary index (queue, trig, wmMin; DESIGN.md "Block
// boundary") is derived state: at every instant it is not stale it
// equals what reindex would recompute from the marks, so a block
// boundary reads it instead of walking every defined rule. Three
// transitions maintain it — arrive, the fold at the end of
// checkTriggered, and consider — and whatever else rewrites marks
// (Define, Drop, begin, RestoreMarks, a check a budget fault cut short)
// only sets stale.
type line struct {
	sup      *Support
	base     *event.Base
	txnStart clock.Time
	// marks holds every defined rule's mark, at the rule's rank.
	marks []mark
	stats Stats

	// stale marks the index below as out of date with the marks; sync
	// rebuilds it before its next use.
	stale bool
	// queue is the pending worklist as a set of ranks: it holds every
	// rule with pending && !triggered (and possibly rules that stopped
	// being so since they entered); queued is false only if it is empty.
	// A check takes its batch from it, already in queue order, and
	// empties it.
	queue  rankSet
	queued bool
	// trig is the set of triggered rules by rank, ntrig its size: Pick
	// scans it for the first bit, Stats derive from its size.
	trig  rankSet
	ntrig int
	// wmMin is the least last consideration of any rule and wmHolders the
	// number of rules at it: the consumption low-watermark while no rule
	// is preserving.
	wmMin     clock.Time
	wmHolders int

	// CheckTriggered scratch, recycled across checks: checkBuf is the
	// pending-rule batch (ranks), eval the memoized evaluator (created at
	// the first check) and probe its arrival walk's marks. firedBuf backs
	// the result slice: the returned names are valid until the next call.
	checkBuf []int32
	eval     *calculus.PlanEval
	probe    probeScratch
	firedBuf []string
	// visits counts the (arrival, rule) probes of the arrival walks.
	visits int64
	// budget is the transaction's evaluation budget (nil = unlimited),
	// handed to the evaluator. Exhaustion aborts CheckTriggered with a
	// budget fault that unwinds through the caller (the engine's block
	// flush).
	budget *calculus.Budget
}

// zeroed returns n zero elements in s's storage when it has room for
// them, in new storage otherwise: the derived state a line rebuilds
// reuses its buffers without relying on the compiler to elide a
// temporary.
func zeroed[S ~[]E, E any](s S, n int) S {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// rankSet is a set of queue ranks, one bit each.
type rankSet []uint64

func (b rankSet) add(r int32)    { b[r>>6] |= 1 << (uint(r) & 63) }
func (b rankSet) remove(r int32) { b[r>>6] &^= 1 << (uint(r) & 63) }

// each calls f on the ranks of set, in queue order, until f returns
// false.
func (b rankSet) each(f func(r int32) bool) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			if !f(int32(w<<6 | bits.TrailingZeros64(word))) {
				return
			}
		}
	}
}

// begin opens the line's transaction at start over base: every rule's
// horizon at start, nothing triggered or pending.
func (l *line) begin(base *event.Base, start clock.Time) {
	l.base, l.txnStart = base, start
	n := len(l.sup.ordered)
	l.marks = slices.Grow(l.marks[:0], n)[:n]
	for i := range l.marks {
		l.marks[i] = mark{lastConsideration: start, lastProbe: start, triggeredAt: clock.Never}
	}
	l.stale = true
}

// sync brings the index up to date with the marks. Every line method
// that reads or maintains the index starts with it.
func (l *line) sync() {
	if l.stale {
		l.reindex()
	}
}

// reindex recomputes the whole index from the marks: the worklist from
// pending, the triggered set from triggered, the watermark from the last
// considerations. It is the definition the incremental transitions are
// held to (line.checkIndex, in the tests, compares the two). Whatever
// made the index stale may also have changed the rule set, so it brings
// the arrival table up to date first: on the direct line, whose caller
// holds the Support's mutex, since a Session's rule set is frozen and
// was derived when it opened.
func (l *line) reindex() {
	l.sup.derive()
	words := (len(l.marks) + 63) >> 6
	l.queue = zeroed(l.queue, words)
	l.trig = zeroed(l.trig, words)
	l.queued, l.ntrig = false, 0
	for i := range l.marks {
		switch m := &l.marks[i]; {
		case m.triggered:
			l.trig.add(int32(i))
			l.ntrig++
		case m.pending:
			l.queue.add(int32(i))
			l.queued = true
		}
	}
	l.rescanWatermark()
	l.stale = false
}

// rescanWatermark recomputes the least consideration horizon and the
// number of rules holding it.
func (l *line) rescanWatermark() {
	l.wmMin, l.wmHolders = l.txnStart, 0
	for i := range l.marks {
		switch lc := l.marks[i].lastConsideration; {
		case i == 0 || lc < l.wmMin:
			l.wmMin, l.wmHolders = lc, 1
		case lc == l.wmMin:
			l.wmHolders++
		}
	}
}

// Support is the Trigger Support plus Rule Table: the registry of
// defined rules every transaction line reads, the pool of idle lines,
// and the aggregate work counters.
type Support struct {
	mu   sync.RWMutex
	opts Options
	// plan is the rule set's interned expression DAG, rebuilt
	// incrementally on Define/Drop via per-node refcounts.
	plan  *calculus.Plan
	rules map[string]*State
	// order holds rule names sorted by (priority, name); it is the
	// priority queue of the paper's Rule Table. ordered mirrors it with
	// resolved *State pointers; a State's rank is its position here.
	order   []string
	ordered []*State
	// preserving counts the defined preserving-mode rules. Any preserving
	// rule pins every line's consumption low-watermark at its transaction
	// start (its event-formula window always reaches back there), so the
	// watermark short-circuits on the counter.
	preserving int
	// deferred counts the defined deferred-coupling rules. The engine's
	// commit path skips the under-latch deferred-rule phase entirely when
	// it is zero; the count is stable while any session is open (the
	// registry is frozen), so the skip decision cannot race a Define.
	deferred int
	// reg is the type registry every line's base shares: the base's
	// NewSupport was given, else the first Session's.
	reg *event.Registry
	// What every line reads to mark and probe rules, rebuilt by derive
	// after Define or Drop (derived false until then). listen is the
	// arrival table: the rules an arrival of each type id marks pending
	// (see notifyArrivals) — the rules whose V(E) gives the type a Δ+ or
	// Δ± variation — and, in the prefix of each list, the non-monotone
	// ones, which the arrival walk probes at it (see walk). matchAll holds
	// the ranks of the rules with vacuously active expressions, which
	// every arrival reaches, the non-monotone ones first; probeAll is that
	// prefix. No arrival is ever hashed by its Type here.
	derived  bool
	listen   table
	matchAll []int32
	probeAll []int32
	// tids is the direct line's NotifyArrivals scratch.
	tids []int32
	// sessions counts the open Sessions. While any are open the rule set
	// (and with it the plan DAG their evaluators walk) is frozen: Define
	// and Drop fail. idle holds released Sessions for NewSession to
	// reuse; Define and Drop empty it, since its lines are sized to the
	// old rule set and their evaluators walk the old plan.
	sessions int
	idle     []*Session
	// line is the direct line (see BeginTransaction). Its stats also
	// accumulate every released Session's counters.
	line
}

// NewSupport builds a Trigger Support whose direct line runs over base.
// Every Session's base must share base's type registry; with a nil base,
// the first Session's.
func NewSupport(base *event.Base, opts Options) *Support {
	s := &Support{
		opts:  opts,
		plan:  calculus.NewPlan(),
		rules: make(map[string]*State),
	}
	if base != nil {
		s.reg = base.Registry()
	}
	s.line = line{sup: s, base: base}
	return s
}

// Define registers a rule. On the direct line the rule starts
// non-triggered with its consideration horizon at the current
// transaction start.
func (s *Support) Define(d Def) error {
	if err := d.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions > 0 {
		return fmt.Errorf("rules: cannot define rule %q while %d session(s) are open", d.Name, s.sessions)
	}
	if _, dup := s.rules[d.Name]; dup {
		return fmt.Errorf("rules: rule %q already defined", d.Name)
	}
	st := &State{
		Def:      d,
		Filter:   calculus.Compile(d.Event),
		monotone: !calculus.ContainsNegation(d.Event),
		planRoot: s.plan.Intern(d.Event),
	}
	s.rules[d.Name] = st
	// Insert the rule at its (priority, name) slot of the queue, which
	// Define and Drop keep sorted: names are unique, so the slot is.
	i := sort.Search(len(s.ordered), func(i int) bool {
		q := s.ordered[i].Def
		if q.Priority != d.Priority {
			return q.Priority > d.Priority
		}
		return q.Name > d.Name
	})
	s.order = slices.Insert(s.order, i, d.Name)
	s.ordered = slices.Insert(s.ordered, i, st)
	s.renumber(i)
	// A rule defined mid-transaction starts pending: its window
	// (txnStart, now] may already hold relevant occurrences, and the
	// V(E) gate in CheckTriggered would otherwise skip it until the NEXT
	// relevant arrival. The first check settles the flag (an empty window
	// simply decides "not triggered").
	s.line.marks = slices.Insert(s.line.marks, i, mark{
		lastConsideration: s.txnStart,
		lastProbe:         s.txnStart,
		triggeredAt:       clock.Never,
		pending:           true,
	})
	if d.Consumption == Preserving {
		s.preserving++
	}
	if d.Coupling == Deferred {
		s.deferred++
	}
	s.changed()
	return nil
}

// renumber assigns every rule from queue slot i on its rank.
func (s *Support) renumber(i int) {
	for ; i < len(s.ordered); i++ {
		s.ordered[i].rank = int32(i)
	}
}

// changed invalidates what depends on the rule set: the derived tables,
// the idle Sessions, and the direct line's index (rebuilt at the next
// block boundary or arrival, so loading N rules derives once, not N
// times).
func (s *Support) changed() {
	s.derived = false
	s.idle = nil
	s.line.stale = true
}

// HasDeferred reports whether any deferred-coupling rule is defined.
// While sessions are open the registry is frozen, so a commit pipeline
// reading it once per commit observes a stable value.
func (s *Support) HasDeferred() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.deferred > 0
}

// Watermark returns the direct line's consumption low-watermark (see
// Session.Watermark).
func (s *Support) Watermark() clock.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.watermark()
}

// watermark is the minimum over all defined rules of the (exclusive)
// start of the window the rule can still observe — the last
// consideration for consuming rules, the transaction start for
// preserving ones (whose event formulas always reach back to the
// transaction start). Every occurrence at or below it is invisible to
// every rule, so the Event Base may retire it; the engine feeds the
// value to event.Base.CompactBelow at block boundaries.
//
// The call reads the line's index — the least last consideration and
// how many rules hold it, which consider keeps current and rescans only
// when the last holder moves — so it costs the same under one rule and
// under ten thousand. With no rules defined it conservatively returns
// the transaction start, keeping the whole log available to ad-hoc
// window queries.
func (l *line) watermark() clock.Time {
	l.sync()
	if l.sup.preserving > 0 || len(l.marks) == 0 {
		return l.txnStart
	}
	return l.wmMin
}

// Drop removes a rule.
func (s *Support) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions > 0 {
		return fmt.Errorf("rules: cannot drop rule %q while %d session(s) are open", name, s.sessions)
	}
	st, ok := s.rules[name]
	if !ok {
		return fmt.Errorf("rules: no rule %q", name)
	}
	delete(s.rules, name)
	// Drop the rule's tree from the interned DAG; nodes still referenced
	// by other rules survive, the rest free their ids.
	s.plan.Release(st.planRoot)
	st.planRoot = calculus.NoNode
	if st.Def.Consumption == Preserving {
		// The direct line's watermark reads the counter: dropping the last
		// preserving rule unpins compaction without waiting for any
		// further rule activity.
		s.preserving--
	}
	if st.Def.Coupling == Deferred {
		s.deferred--
	}
	// The rule leaves the queue, so every rank after it moves, and the
	// direct line's index (which may hold the rule as pending or
	// triggered) is rebuilt from the surviving marks before anything
	// reads it again.
	i := int(st.rank)
	s.order = slices.Delete(s.order, i, i+1)
	s.ordered = slices.Delete(s.ordered, i, i+1)
	s.line.marks = slices.Delete(s.line.marks, i, i+1)
	s.renumber(i)
	s.changed()
	return nil
}

// Rule returns a copy of the rule's registry record. The copy shares
// the immutable Filter pointer with the live support (see State).
func (s *Support) Rule(name string) (State, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.rules[name]
	if !ok {
		return State{}, false
	}
	return *st, true
}

// Rules returns the rule names in priority order.
func (s *Support) Rules() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// Stats returns a snapshot of the work counters: every released
// Session's, plus the direct line's.
func (s *Support) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Plan returns the interned trigger-plan DAG. The plan is mutated only
// under Define/Drop (which hold the write lock), so readers inspecting
// sharing — the analysis report, the shell — see a consistent DAG
// between rule-set changes.
func (s *Support) Plan() *calculus.Plan {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.plan
}

// BeginTransaction opens a transaction on the Support's direct line,
// over the base NewSupport was given: every rule's horizon resets to
// start.
//
// The direct line — BeginTransaction, NotifyArrivals, CheckTriggered,
// Pick, Consider, Watermark, and Define in the middle of a transaction —
// runs on the same marks-only line type as a Session. Only the rules
// kernel of the benchmark and this package's tests call it; the engine
// opens every transaction as a Session. It goes once that kernel opens a
// Session instead.
func (s *Support) BeginTransaction(start clock.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.line.begin(s.line.base, start)
}

// derive rebuilds what every line reads (see Support.derived) if Define
// or Drop changed the rule set since, registering the types it files
// rules under. It runs once per rule set, not once per line, and not
// before the Support knows its registry. The caller holds the mutex.
func (s *Support) derive() {
	if s.derived || s.reg == nil {
		return
	}
	var filings []filing
	s.matchAll = s.matchAll[:0]
	// Two passes, the non-monotone rules first, so that every list of
	// the arrival table starts with the ranks the walk probes.
	probed, probeAll := 0, 0
	for _, monotone := range [2]bool{false, true} {
		for _, st := range s.ordered {
			if st.monotone != monotone {
				continue
			}
			if st.Filter.MatchAll {
				s.matchAll = append(s.matchAll, st.rank)
				continue
			}
			for _, t := range st.Filter.RelevantTypes() {
				filings = append(filings, filing{s.reg.Intern(t), st.rank})
			}
		}
		if !monotone {
			probed, probeAll = len(filings), len(s.matchAll)
		}
	}
	s.probeAll = s.matchAll[:probeAll]
	s.listen.build(filings, probed)
	s.derived = true
}

// NotifyArrivals is NotifyArrivals of the direct line (see
// Session.NotifyArrivals), for occurrences: it resolves each
// occurrence's type to its registry id, then marks by id.
func (s *Support) NotifyArrivals(occs []event.Occurrence) {
	if len(occs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tids := s.tids[:0]
	for _, occ := range occs {
		tids = append(tids, s.reg.Intern(occ.Type))
	}
	s.tids = tids
	s.line.notifyArrivals(tids)
}

// notifyArrivals marks the rules the arrivals, given by type id, are
// relevant to: by the V(E) static optimization of Section 5.1, a rule
// whose V(E) gives the arrival's type a Δ+ or Δ± variation (a pure Δ−
// arrival cannot raise ts, so a non-triggered rule skips it), and every
// match-all rule. This is the Event Handler → Trigger Support hand-off of
// Section 5: one read of the arrival table per arrival, and a type id
// past the table (a type no rule mentions, registered after the table
// was built) reaches the match-all rules only.
func (l *line) notifyArrivals(tids []int32) {
	l.sync()
	for _, r := range l.sup.matchAll {
		l.arrive(r)
	}
	for _, tid := range tids {
		for _, r := range l.sup.listen.of(tid) {
			l.arrive(r)
		}
	}
}

// arrive is the arrival→pending transition: a rule a relevant arrival
// reaches joins the worklist the moment its flag flips.
func (l *line) arrive(r int32) {
	m := &l.marks[r]
	if m.pending || m.triggered {
		return
	}
	m.pending = true
	l.queue.add(r)
	l.queued = true
}

// CheckTriggered is CheckTriggered of the direct line (see
// Session.CheckTriggered).
func (s *Support) CheckTriggered(now clock.Time) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.checkTriggered(now)
}

// checkTriggered runs the triggering determination at a block boundary:
// for every non-triggered rule (skipping rules with no relevant arrival)
// it decides T(r, now) and flips the triggered flag. It returns the names
// of newly triggered rules in priority order.
func (l *line) checkTriggered(now clock.Time) []string {
	met := l.sup.opts.Metrics
	var statsBefore Stats
	if met != nil {
		statsBefore = l.stats
	}
	l.sync()
	l.stats.Checks++
	// Every non-triggered rule is examined; the batch is those of them
	// that need a ts evaluation — the worklist, whose ranks come out of
	// the set already in queue order. An empty worklist — the block after
	// a consideration whose action logged nothing — visits no rule at all.
	examined := len(l.marks) - l.ntrig
	batch := l.checkBuf[:0]
	if l.queued {
		l.queue.each(func(r int32) bool {
			if m := &l.marks[r]; m.pending && !m.triggered {
				batch = append(batch, r)
			}
			return true
		})
		// The check settles every pending rule.
		clear(l.queue)
		l.queued = false
	}
	l.stats.RulesExamined += int64(examined)
	l.stats.RulesSkipped += int64(examined - len(batch))
	l.checkBuf = batch
	// The evaluator writes triggered and pending into the marks only; the
	// index learns of it in the fold below. A budget fault unwinding from
	// here skips the fold, and stale makes the next reader rebuild from
	// what the marks then say.
	l.stale = true
	l.checkShared(batch, now)
	met.report(statsBefore, l.stats, len(batch), l.sup.plan)
	// The result slice is recycled across checks (no allocation on busy
	// boundaries); callers must not retain it past the next call. The
	// same pass is the check→triggered transition of the index.
	fired := l.firedBuf[:0]
	for _, r := range batch {
		if l.marks[r].triggered {
			l.trig.add(r)
			l.ntrig++
			fired = append(fired, l.sup.ordered[r].Def.Name)
		}
	}
	l.stale = false
	l.firedBuf = fired
	return fired
}

// checkShared decides T(r, now) for every rule of the batch over the
// interned DAG. A rule probes every arrival instant in (lo, now] — lo
// the later of its last probe and its horizon — that can activate it
// (see walk), then now itself; the earliest active probe wins, a
// monotone rule collapses to one evaluation at now with the activation
// instant as TriggeredAt, and an empty R never triggers. One arrival
// walk and one memo serve the whole batch, whatever the horizons.
// Per-rule outcomes are independent, so the order rules are probed in
// cannot change results; the caller collects fired names from the
// priority-ordered batch.
func (l *line) checkShared(batch []int32, now clock.Time) {
	rules := l.sup.ordered
	// R = (since, now] is empty exactly when the newest arrival at or
	// before now is at or below since: one comparison per rule.
	newest := l.base.Newest(now)
	floor, minLo := now, now
	for _, r := range batch {
		m := &l.marks[r]
		since := m.lastConsideration
		if newest <= since {
			m.lastProbe, m.pending = now, false
			continue
		}
		floor = min(floor, since)
		if !rules[r].monotone {
			minLo = min(minLo, max(m.lastProbe, since))
		}
	}
	if floor == now {
		return // every window is empty
	}
	if l.eval == nil {
		l.eval = calculus.NewPlanEval(l.sup.plan)
		// The walk feeds every arrival to the evaluator in timestamp
		// order, so the prim cursors apply.
		l.eval.Track(true)
	}
	pe := l.eval
	pe.Budget = l.budget
	pe.Bind(l.base, floor)
	walked := minLo < now
	if walked {
		l.walk(pe, batch, newest, minLo, now)
	}
	if pe.Cur() != now {
		pe.Begin(now)
	}
	for _, r := range batch {
		if walked {
			l.probe.lo[r] = notProbing
		}
		m := &l.marks[r]
		since := m.lastConsideration
		if m.triggered || newest <= since {
			continue // at an arrival of the walk, or R = ∅
		}
		if st := rules[r]; st.monotone {
			if v := pe.TS(st.planRoot, now, since); v.Active() {
				m.triggered, m.triggeredAt = true, v.Time()
				l.stats.Triggerings++
			}
		} else if now > max(m.lastProbe, since) && pe.TS(st.planRoot, now, since).Active() {
			m.triggered, m.triggeredAt = true, now
			l.stats.Triggerings++
		}
		m.lastProbe, m.pending = now, false
	}
	if walked {
		l.probe.walking = false
	}
	l.count()
}

// count moves the evaluator's counters into the line's.
func (l *line) count() {
	evals, hits := l.eval.TakeCounters()
	l.stats.TsEvaluations += evals
	l.stats.MemoMisses += evals
	l.stats.MemoHits += hits
}

// table files queue ranks under type ids: the ranks filed under id tid
// are ranks[off[tid]:off[tid+1]], the non-monotone rules' first, up to
// probeEnd[tid], then the monotone rules', each run ascending. The
// Support holds one, the arrival table (Support.listen), derived state.
type table struct {
	off      []int32
	probeEnd []int32
	ranks    []int32
}

// filing is one (type id, rank) entry of a table's source.
type filing struct{ tid, rank int32 }

// build files the rank of each filing under its type id, by a counting
// sort that keeps the filings' order within every list (they come as
// the non-monotone rules' in rank order, the first split of them, then
// the monotone rules'). It allocates nothing once the table has held as
// many ids and filings.
func (tb *table) build(filed []filing, split int) {
	n := int32(0)
	for _, f := range filed {
		n = max(n, f.tid+1)
	}
	tb.off = zeroed(tb.off, int(n)+2)
	tb.probeEnd = zeroed(tb.probeEnd, int(n))
	for i, f := range filed {
		tid := f.tid
		tb.off[tid+2]++
		if i < split {
			tb.probeEnd[tid]++
		}
	}
	for i := 2; i < len(tb.off); i++ {
		tb.off[i] += tb.off[i-1]
	}
	for tid := range tb.probeEnd {
		tb.probeEnd[tid] += tb.off[tid+1]
	}
	tb.ranks = zeroed(tb.ranks, len(filed))
	for _, f := range filed {
		tb.ranks[tb.off[f.tid+1]] = f.rank
		tb.off[f.tid+1]++
	}
	tb.off = tb.off[:n+1]
}

// of returns the ranks filed under tid: none for a type id past the
// table.
func (tb *table) of(tid int32) []int32 {
	if tid < 0 || int(tid) >= len(tb.off)-1 {
		return nil
	}
	return tb.ranks[tb.off[tid]:tb.off[tid+1]]
}

// probes returns the non-monotone prefix of of(tid).
func (tb *table) probes(tid int32) []int32 {
	if tid < 0 || int(tid) >= len(tb.probeEnd) {
		return nil
	}
	return tb.ranks[tb.off[tid]:tb.probeEnd[tid]]
}

// notProbing is probeScratch.lo of a rule no arrival of the walk probes.
const notProbing = clock.Time(math.MaxInt64)

// probeScratch is the arrival walk's scratch, by rank: lo is the instant
// after which an undecided rule of the check probes arrivals, notProbing
// for every other rule, so an arrival at t probes rank r exactly when
// lo[r] < t. walking is set while lo holds a walk's marks, from the
// walk's start until checkShared clears them: a budget fault that
// unwinds through the walk leaves it set, and the next walk resets lo
// before it marks anything.
type probeScratch struct {
	lo      []clock.Time
	walking bool
}

// walk is the check's one pass over the arrivals of (minLo, now]. Each
// arrival is fed to the prim cursors and probed by the undecided rules
// whose lo lies below it among those it can activate: the ranks in its
// type id's probed prefix, and probeAll. A rule the walk has not found
// active was inactive before the arrival, and an arrival of a type its
// V(E) gives only the sign Δ− can only lower ts (Section 5.1). One load
// per rule filed under the arrival, so an arrival no rule can activate
// costs one table read. The memo generation of an instant opens at its
// first probe.
func (l *line) walk(pe *calculus.PlanEval, batch []int32, newest, minLo, now clock.Time) {
	p := &l.probe
	if p.walking || len(p.lo) != len(l.marks) {
		p.lo = slices.Grow(p.lo[:0], len(l.marks))[:len(l.marks)]
		for i := range p.lo {
			p.lo[i] = notProbing
		}
	}
	p.walking = true
	rules := l.sup.ordered
	open := 0
	for _, r := range batch {
		m := &l.marks[r]
		if !rules[r].monotone && newest > m.lastConsideration {
			p.lo[r] = max(m.lastProbe, m.lastConsideration)
			open++
		}
	}
	for cursor := minLo; ; {
		cols := l.base.ChunkCols(cursor, now)
		if len(cols.TS) == 0 {
			return
		}
		for i, t := range cols.TS {
			tid := cols.TIDs[i]
			// Feed the prim cursors even once every rule has decided: the
			// final probe at now still reads them.
			pe.NoteArrivalTID(tid, t)
			if open == 0 {
				continue
			}
			for _, ranks := range [2][]int32{l.sup.listen.probes(tid), l.sup.probeAll} {
				for _, r := range ranks {
					if p.lo[r] >= t {
						continue
					}
					if pe.Cur() != t {
						pe.Begin(t)
					}
					l.visits++
					m := &l.marks[r]
					if pe.TS(rules[r].planRoot, t, m.lastConsideration).Active() {
						m.triggered, m.triggeredAt = true, t
						m.lastProbe, m.pending = now, false
						p.lo[r] = notProbing
						l.stats.Triggerings++
						open--
					}
				}
			}
		}
		cursor = cols.TS[len(cols.TS)-1]
	}
}

// Pick is Pick of the direct line (see Session.Pick).
func (s *Support) Pick(filter func(Def) bool) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.pick(filter)
}

// pick returns the first triggered rule passing filter: the engine picks
// once per consideration, so it must not build the list it discards.
// The lowest set rank is the head of the queue among the triggered.
func (l *line) pick(filter func(Def) bool) (name string, ok bool) {
	l.sync()
	if l.ntrig == 0 {
		return "", false
	}
	l.trig.each(func(r int32) bool {
		if d := l.sup.ordered[r].Def; filter == nil || filter(d) {
			name, ok = d.Name, true
		}
		return !ok
	})
	return name, ok
}

// Consideration is what the engine needs to evaluate a considered rule's
// condition: the event-formula window and the consideration instant.
type Consideration struct {
	Rule Def
	// Since is the exclusive lower bound of the window event formulas
	// observe (last consideration for consuming rules, transaction start
	// for preserving ones).
	Since clock.Time
	// At is the consideration instant.
	At clock.Time
}

// Consider is Consider of the direct line (see Session.Consider).
func (s *Support) Consider(name string, now clock.Time) (Consideration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.consider(name, now)
}

// consider detriggers the rule and returns the event-formula window. The
// rule can be triggered again only by occurrences newer than this
// consideration (Section 2).
func (l *line) consider(name string, now clock.Time) (Consideration, error) {
	st, ok := l.sup.rules[name]
	if !ok {
		return Consideration{}, fmt.Errorf("rules: no rule %q", name)
	}
	m := &l.marks[st.rank]
	since := m.lastConsideration
	if st.Def.Consumption == Preserving {
		since = l.txnStart
	}
	c := Consideration{Rule: st.Def, Since: since, At: now}
	l.sync()
	if m.triggered {
		m.triggered = false
		l.trig.remove(st.rank)
		l.ntrig--
	}
	m.triggeredAt = clock.Never
	m.lastProbe = now
	m.pending = false
	if old := m.lastConsideration; now != old {
		// The horizon leaves the minimum only if the rule held it, and the
		// minimum is rescanned only when its last holder leaves — or when
		// a caller hands in an instant at or below it, which a clock never
		// does.
		m.lastConsideration = now
		if old == l.wmMin {
			l.wmHolders--
		}
		if l.wmHolders == 0 || now <= l.wmMin {
			l.rescanWatermark()
		}
	}
	return c, nil
}
