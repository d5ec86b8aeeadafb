// Package rules implements Chimera's rule-side machinery: rule
// definitions (triggering event expression, EC coupling mode, event
// consumption mode, priority, optional class target), the Rule Table of
// Section 5 (hash access plus a priority queue), and the Trigger Support
// that maintains each rule's internal state — last consideration, last
// consumption, triggered flag — and decides triggering with the event
// calculus.
//
// The Trigger Support decides T(r, t) of Section 4.4 one way. Every
// rule's event expression is interned into one shared DAG
// (calculus.Plan). At a block boundary the rules to examine — by the
// V(E) filter of Section 5.1, only those a relevant arrival reached —
// are decided together in one walk of the check's arrivals through the
// interned-id columns of the Event Base: an inverted V(E) index hands
// each arrival the undecided rules whose V(E) mentions its type, and
// each of them probes ts(E, t') there; every rule probes the check
// instant last. One memoized evaluator (calculus.PlanEval) serves the
// whole walk, its memo shared by every rule whatever its consideration
// horizon. The same evaluator answers the conditions' event formulas
// and the shell's explain. The recursive calculus.Env is the definition
// it is held to: the tests keep the per-rule determination over it as the
// oracle.
//
// # Concurrency
//
// Support is safe for concurrent use. State-changing operations
// (Define, Drop, NotifyArrivals, CheckTriggered, Consider,
// BeginTransaction, Rebind, ResetStats) take the mutex exclusively;
// read-only operations (Rule, Rules, Triggered, Pick, Watermark, Stats,
// TxnStart) take it shared, so inspection never serializes against
// other readers. A determination runs on the calling goroutine; lines
// of different Sessions run theirs in parallel, sharing only the
// immutable registry and the Event Base's read paths. See DESIGN.md §7
// for the lock hierarchy.
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

// State is the Trigger Support's per-rule record: exactly the fields the
// paper's Section 5 enumerates, plus the compiled V(E) filter and the
// incremental probe mark.
//
// The copies returned by Support.Rule share the Filter pointer with the
// live support: a Filter is immutable after calculus.Compile, so the
// aliasing is read-only by construction.
type State struct {
	Def Def
	// Filter is the compiled V(E) filter. It is immutable once built —
	// treat the pointer as a shared read-only view.
	Filter            *calculus.Filter
	LastConsideration clock.Time
	Triggered         bool
	TriggeredAt       clock.Time

	// lastProbe is the newest instant already examined by the ∃t' probe;
	// earlier instants can never yield a new outcome.
	lastProbe clock.Time
	// rank is the rule's position in its line's priority queue
	// (line.ordered), the coordinate of the line's block-boundary index.
	// Assigned by line.reindex; meaningless while the index is stale.
	rank int32
	// pending is set when an arrival relevant per the filter has been
	// seen since the last probe.
	pending bool
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
// the bound Event Base, the per-rule records, the inverted listening
// index, the block-boundary index, the inverted V(E) index, work
// counters, and all check-path scratch. The Support embeds one line (its default, serving the classic
// single-session engine and the direct Support API) and every Session
// owns another over the same rule registry, so N concurrent lines run
// their determinations in parallel with nothing shared but the immutable
// definitions, filters and the interned plan DAG.
//
// The block-boundary index (queue, trig, wmMin; DESIGN.md "Block
// boundary") is derived state: at every instant it is not stale it
// equals what reindex would recompute from the States, so a block
// boundary reads it instead of walking every defined rule. Three
// transitions maintain it — arrive, the fold at the end of
// checkTriggered, and consider — and whatever else rewrites marks
// (Define, Drop, BeginTransaction, RestoreMarks, NewSession, a check a
// budget fault cut short) only sets stale.
type line struct {
	base  *event.Base
	rules map[string]*State
	// order holds rule names sorted by (priority, name); it is the
	// priority queue of the paper's Rule Table. ordered mirrors it with
	// resolved *State pointers; a State's rank is its position here.
	order    []string
	ordered  []*State
	txnStart clock.Time
	// preserving counts the defined preserving-mode rules. Any preserving
	// rule pins the consumption low-watermark at the transaction start
	// (its event-formula window always reaches back to TxnStart), so
	// Watermark short-circuits on the counter.
	preserving int
	stats      Stats
	// byType is the inverted listening index: for each primitive event
	// type, the rules whose V(E) filter an arrival of that type matches.
	// matchAll holds the rules with vacuously active expressions, which
	// listen to every arrival. Together they make NotifyArrivals
	// O(arrivals × listeners hit) instead of O(arrivals × rules).
	byType   map[event.Type][]*State
	matchAll []*State

	// stale marks the index below as out of date with the States; sync
	// rebuilds it before its next use.
	stale bool
	// queue is the pending worklist as a set of ranks: it holds every
	// rule with pending && !Triggered (and possibly rules that stopped
	// being so since they entered); queued is false only if it is empty.
	// A check takes its batch from it, already in queue order, and
	// empties it.
	queue  rankSet
	queued bool
	// trig is the set of triggered rules by rank, ntrig its size: Pick
	// scans it for the first bit, Stats derive from its size.
	trig  rankSet
	ntrig int
	// wmMin is the least LastConsideration of any rule and wmHolders the
	// number of rules at it: the consumption low-watermark while no rule
	// is preserving.
	wmMin     clock.Time
	wmHolders int

	// CheckTriggered scratch, recycled across checks: checkBuf is the
	// pending-rule batch, eval the memoized evaluator (created at the
	// first check) and probe the inverted V(E) index its arrival walk
	// reads. firedBuf backs the result slice: the returned names are valid
	// until the next call.
	checkBuf []*State
	eval     *calculus.PlanEval
	probe    probeIndex
	firedBuf []string
	// visits counts the (arrival, rule) probes of the arrival walks.
	visits int64
	// budget is the transaction's evaluation budget (nil = unlimited),
	// installed by SetBudget at Begin and handed to the evaluator.
	// Exhaustion aborts CheckTriggered with a budget fault that unwinds
	// through the caller (the engine's block flush).
	budget *calculus.Budget
}

// rankSet is a set of queue ranks, one bit each.
type rankSet []uint64

func (b rankSet) add(r int32)    { b[r>>6] |= 1 << (uint(r) & 63) }
func (b rankSet) remove(r int32) { b[r>>6] &^= 1 << (uint(r) & 63) }

// each calls f on the rules of set, in queue order, until f returns
// false.
func (l *line) each(set rankSet, f func(*State) bool) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			if !f(l.ordered[w<<6|bits.TrailingZeros64(word)]) {
				return
			}
		}
	}
}

// sync brings the index up to date with the States. Every line method
// that reads or maintains the index starts with it. A caller holding
// only a read lock must have synced under the write lock first (see
// Support.rlockSynced), so that this is a pure read there.
func (l *line) sync() {
	if l.stale {
		l.reindex()
	}
}

// reindex recomputes the whole index from the States: ranks from the
// queue order, the worklist from pending, the triggered set from
// Triggered, the watermark from LastConsideration. It is the definition
// the incremental transitions are held to (line.checkIndex, in the
// tests, compares the two).
func (l *line) reindex() {
	words := (len(l.ordered) + 63) >> 6
	l.queue = append(l.queue[:0], make(rankSet, words)...)
	l.trig = append(l.trig[:0], make(rankSet, words)...)
	l.queued, l.ntrig = false, 0
	for i, st := range l.ordered {
		st.rank = int32(i)
		switch {
		case st.Triggered:
			l.trig.add(st.rank)
			l.ntrig++
		case st.pending:
			l.queue.add(st.rank)
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
	for i, st := range l.ordered {
		switch {
		case i == 0 || st.LastConsideration < l.wmMin:
			l.wmMin, l.wmHolders = st.LastConsideration, 1
		case st.LastConsideration == l.wmMin:
			l.wmHolders++
		}
	}
}

// Support is the Trigger Support plus Rule Table.
type Support struct {
	mu   sync.RWMutex
	opts Options
	// plan is the rule set's interned expression DAG, rebuilt
	// incrementally on Define/Drop via per-node refcounts.
	plan *calculus.Plan
	// sessions counts the open per-transaction Sessions. While any are
	// open the rule set (and with it the plan DAG their evaluators walk)
	// is frozen: Define and Drop fail.
	sessions int
	// deferred counts the defined deferred-coupling rules. The engine's
	// commit path skips the under-latch deferred-rule phase entirely when
	// it is zero; the count is stable while any session is open (the
	// registry is frozen), so the skip decision cannot race a Define.
	deferred int
	// vocab is the rule set's primitive event types, each once, in the
	// order the (priority, expression traversal) walk first meets them;
	// nil after Define or Drop until internVocabulary rebuilds it.
	vocab []event.Type
	line
}

// NewSupport builds a Trigger Support over an Event Base.
func NewSupport(base *event.Base, opts Options) *Support {
	return &Support{
		opts: opts,
		plan: calculus.NewPlan(),
		line: line{
			base:   base,
			rules:  make(map[string]*State),
			byType: make(map[event.Type][]*State),
		},
	}
}

// Define registers a rule. The rule starts non-triggered with its
// consideration horizon at the current transaction start.
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
		Def:               d,
		Filter:            calculus.Compile(d.Event),
		LastConsideration: s.txnStart,
		lastProbe:         s.txnStart,
		monotone:          !calculus.ContainsNegation(d.Event),
		// A rule defined mid-transaction starts pending: its window
		// (txnStart, now] may already hold relevant occurrences, and the
		// V(E) gate in CheckTriggered would otherwise skip it until the
		// NEXT relevant arrival. The first check settles the flag (an
		// empty window simply decides "not triggered").
		pending:  true,
		planRoot: s.plan.Intern(d.Event),
	}
	s.rules[d.Name] = st
	s.enqueue(st)
	s.vocab = nil
	if d.Consumption == Preserving {
		s.preserving++
	}
	if d.Coupling == Deferred {
		s.deferred++
	}
	s.index(st)
	return nil
}

// HasDeferred reports whether any deferred-coupling rule is defined.
// While sessions are open the registry is frozen, so a commit pipeline
// reading it once per commit observes a stable value.
func (s *Support) HasDeferred() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.deferred > 0
}

// Watermark returns the consumption low-watermark: the minimum over all
// defined rules of the (exclusive) start of the window the rule can
// still observe — the last consideration for consuming rules, the
// transaction start for preserving ones (whose event formulas always
// reach back to TxnStart). Every occurrence at or below the watermark is
// invisible to every rule, so the Event Base may retire it; the engine
// feeds the value to event.Base.CompactBelow at block boundaries.
//
// The call reads the line's index — the least LastConsideration and how
// many rules hold it, which Consider keeps current and rescans only when
// the last holder moves — so it costs the same under one rule and under
// ten thousand. Define (a new rule starts its window at the transaction
// start, pulling the watermark back down) and Drop (removing the pinning
// rule releases it immediately) mark the index stale, and the first call
// after them rebuilds it. With no rules defined it conservatively
// returns the transaction start, keeping the whole log available to
// ad-hoc window queries.
func (s *Support) Watermark() clock.Time {
	s.rlockSynced()
	defer s.mu.RUnlock()
	return s.line.watermark()
}

// rlockSynced takes the read lock with the default line's index in sync,
// rebuilding it under the write lock first if it is stale.
func (s *Support) rlockSynced() {
	s.mu.RLock()
	for s.line.stale {
		s.mu.RUnlock()
		s.mu.Lock()
		s.line.sync()
		s.mu.Unlock()
		s.mu.RLock()
	}
}

func (l *line) watermark() clock.Time {
	l.sync()
	if l.preserving > 0 || len(l.ordered) == 0 {
		return l.txnStart
	}
	return l.wmMin
}

// index registers the rule in the inverted listening index.
func (l *line) index(st *State) {
	if st.Filter.MatchAll {
		l.matchAll = append(l.matchAll, st)
		return
	}
	for _, t := range st.Filter.RelevantTypes() {
		l.byType[t] = append(l.byType[t], st)
	}
}

func (l *line) unindex(st *State) {
	drop := func(list []*State) []*State {
		for i, x := range list {
			if x == st {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	l.matchAll = drop(l.matchAll)
	for t, list := range l.byType {
		if nl := drop(list); len(nl) == 0 {
			// Delete emptied keys so rule churn over many types does not
			// grow the index unboundedly in long-lived sessions.
			delete(l.byType, t)
		} else {
			l.byType[t] = nl
		}
	}
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
	// The rule leaves the queue below, so every rank after it moves: the
	// index (which may hold the rule as pending or triggered) is rebuilt
	// from the surviving States before anything reads it again.
	s.stale = true
	s.vocab = nil
	// Drop the rule's tree from the interned DAG; nodes still referenced
	// by other rules survive, the rest free their ids.
	s.plan.Release(st.planRoot)
	st.planRoot = calculus.NoNode
	if st.Def.Consumption == Preserving {
		// Recompute the watermark input immediately: dropping the last
		// preserving rule must unpin compaction without waiting for any
		// further rule activity.
		s.preserving--
	}
	if st.Def.Coupling == Deferred {
		s.deferred--
	}
	s.unindex(st)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			s.ordered = append(s.ordered[:i], s.ordered[i+1:]...)
			break
		}
	}
	s.probe.base = nil
	return nil
}

// enqueue inserts the rule at its (priority, name) slot of the queue,
// which Define and Drop keep sorted: names are unique, so the slot is.
func (s *Support) enqueue(st *State) {
	i := sort.Search(len(s.ordered), func(i int) bool {
		q := s.ordered[i].Def
		if q.Priority != st.Def.Priority {
			return q.Priority > st.Def.Priority
		}
		return q.Name > st.Def.Name
	})
	s.order = slices.Insert(s.order, i, st.Def.Name)
	s.ordered = slices.Insert(s.ordered, i, st)
	// Every later rank moved. Renumbering is left to the next block
	// boundary, and the inverted V(E) index to the next arrival walk, so
	// loading N rules renumbers and inverts once, not N times.
	s.stale = true
	s.probe.base = nil
}

// Rule returns a copy of the rule's state. The copy shares the
// immutable Filter pointer with the live support (see State).
func (s *Support) Rule(name string) (State, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.line.rule(name)
}

func (l *line) rule(name string) (State, bool) {
	st, ok := l.rules[name]
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

// Stats returns a snapshot of the work counters.
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

// BeginTransaction resets every rule's horizon to the new transaction's
// start instant (the Event Base is per-transaction; the engine supplies a
// fresh one via Rebind).
func (s *Support) BeginTransaction(start clock.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txnStart = start
	for _, st := range s.ordered {
		st.LastConsideration = start
		st.lastProbe = start
		st.Triggered = false
		st.TriggeredAt = clock.Never
		st.pending = false
	}
	s.stale = true
}

// Rebind points the support at a new Event Base (a new transaction's
// log).
//
// The rule vocabulary is interned into the fresh base here, eagerly and
// in deterministic (priority, then expression traversal) order. The
// probe machinery would intern the same types lazily at the first
// triggering determination; doing it at Rebind pins the interner's id
// assignment to a pure function of the rule set and the append order —
// the property WAL replay relies on to rebuild a bit-identical base
// without re-running the probes.
func (s *Support) Rebind(base *event.Base) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = base
	s.internVocabulary(base)
}

// internVocabulary interns the rule set's primitive types into base in
// vocabulary order. Interning assigns ids by first appearance, so the
// de-duplicated list yields exactly the ids a walk of every mention
// would. The list is built once per rule set, not once per transaction.
func (s *Support) internVocabulary(base *event.Base) {
	if s.vocab == nil {
		seen := make(map[event.Type]bool)
		for _, st := range s.ordered {
			for _, t := range calculus.Primitives(st.Def.Event) {
				if !seen[t] {
					seen[t] = true
					s.vocab = append(s.vocab, t)
				}
			}
		}
	}
	for _, t := range s.vocab {
		base.InternType(t)
	}
}

// TxnStart returns the current transaction's start instant.
func (s *Support) TxnStart() clock.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.txnStart
}

// SetBudget installs (or, with nil, clears) the evaluation budget the
// default line's determinations charge against. The engine calls it at
// transaction begin; mid-transaction changes take effect at the next
// CheckTriggered.
func (s *Support) SetBudget(b *calculus.Budget) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.line.budget = b
}

// NotifyArrivals tells the support about freshly logged occurrences and
// marks the rules those arrivals are relevant to: by the V(E) static
// optimization of Section 5.1, a rule whose V(E) gives the arrival's type
// a Δ+ or Δ± variation (a pure Δ− arrival cannot raise ts, so a
// non-triggered rule skips it). This is the Event Handler → Trigger
// Support hand-off of Section 5.
func (s *Support) NotifyArrivals(occs []event.Occurrence) {
	if len(occs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.line.notifyArrivals(occs)
}

func (l *line) notifyArrivals(occs []event.Occurrence) {
	l.sync()
	for _, st := range l.matchAll {
		l.arrive(st)
	}
	for _, occ := range occs {
		for _, st := range l.byType[occ.Type] {
			l.arrive(st)
		}
	}
}

// arrive is the arrival→pending transition: a rule a relevant arrival
// reaches joins the worklist the moment its flag flips.
func (l *line) arrive(st *State) {
	if st.pending || st.Triggered {
		return
	}
	st.pending = true
	l.queue.add(st.rank)
	l.queued = true
}

// CheckTriggered runs the triggering determination at a block boundary:
// for every non-triggered rule (skipping rules with no relevant arrival)
// it decides T(r, now) and flips the triggered flag. It returns the names
// of newly triggered rules in priority order.
func (s *Support) CheckTriggered(now clock.Time) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.checkTriggered(now, s.opts.Metrics, s.plan)
}

func (l *line) checkTriggered(now clock.Time, m *SupportMetrics, plan *calculus.Plan) []string {
	var statsBefore Stats
	if m != nil {
		statsBefore = l.stats
	}
	l.sync()
	l.stats.Checks++
	// Every non-triggered rule is examined; the batch is those of them
	// that need a ts evaluation — the worklist, whose ranks come out of
	// the set already in queue order. An empty worklist — the block after
	// a consideration whose action logged nothing — visits no rule at all.
	examined := len(l.ordered) - l.ntrig
	batch := l.checkBuf[:0]
	if l.queued {
		l.each(l.queue, func(st *State) bool {
			if st.pending && !st.Triggered {
				batch = append(batch, st)
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
	// The evaluator writes Triggered and pending into the States only;
	// the index learns of it in the fold below. A budget fault unwinding
	// from here skips the fold, and stale makes the next reader rebuild
	// from what the States then say.
	l.stale = true
	l.checkShared(batch, now, plan)
	m.report(statsBefore, l.stats, len(batch), plan)
	// The result slice is recycled across checks (no allocation on busy
	// boundaries); callers must not retain it past the next call. The
	// same pass is the check→triggered transition of the index.
	fired := l.firedBuf[:0]
	for _, st := range batch {
		if st.Triggered {
			l.trig.add(st.rank)
			l.ntrig++
			fired = append(fired, st.Def.Name)
		}
	}
	l.stale = false
	l.firedBuf = fired
	return fired
}

// checkShared decides T(r, now) for every rule of the batch over the
// interned DAG. A rule probes every arrival instant in (lo, now] — lo the
// later of its last probe and its horizon — that its V(E) mentions, then
// now itself; the earliest active probe wins, a monotone rule collapses
// to one evaluation at now with the activation instant as TriggeredAt,
// and an empty R never triggers. One arrival walk and one memo serve the
// whole batch, whatever the horizons. Per-rule outcomes are independent,
// so the order rules are probed in cannot change results; the caller
// collects fired names from the priority-ordered batch.
func (l *line) checkShared(batch []*State, now clock.Time, plan *calculus.Plan) {
	// R = (since, now] is empty exactly when the newest arrival at or
	// before now is at or below since: one comparison per rule.
	newest := l.base.Newest(now)
	floor, minLo := now, now
	for _, st := range batch {
		since := st.LastConsideration
		if newest <= since {
			st.lastProbe, st.pending = now, false
			continue
		}
		floor = min(floor, since)
		if !st.monotone {
			minLo = min(minLo, max(st.lastProbe, since))
		}
	}
	if floor == now {
		return // every window is empty
	}
	if l.eval == nil {
		l.eval = calculus.NewPlanEval(plan)
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
	for _, st := range batch {
		if walked {
			l.probe.lo[st.rank] = notProbing
		}
		since := st.LastConsideration
		if st.Triggered || newest <= since {
			continue // at an arrival of the walk, or R = ∅
		}
		if st.monotone {
			if v := pe.TS(st.planRoot, now, since); v.Active() {
				st.Triggered, st.TriggeredAt = true, v.Time()
				l.stats.Triggerings++
			}
		} else if now > max(st.lastProbe, since) && pe.TS(st.planRoot, now, since).Active() {
			st.Triggered, st.TriggeredAt = true, now
			l.stats.Triggerings++
		}
		st.lastProbe, st.pending = now, false
	}
	if walked {
		l.probe.base = l.base
	}
	evals, hits := pe.TakeCounters()
	l.stats.TsEvaluations += evals
	l.stats.MemoMisses += evals
	l.stats.MemoHits += hits
}

// notProbing is probeIndex.lo of a rule no arrival of the walk probes.
const notProbing = clock.Time(math.MaxInt64)

// probeIndex is the inverted V(E) index of one line: for every type id
// interned in the line's base, the queue ranks of the rules whose V(E)
// mentions that type, ascending, plus the ranks of the match-all rules —
// non-monotone rules only, since a monotone one decides at the check
// instant alone. Like the block-boundary index it is derived state. It is built at the
// first arrival walk after the base or the rule set changed (base nil
// marks it unbuilt; Define and Drop only clear it), so Define, Drop and
// NewSession never invert anything.
//
// lo is the walk's scratch, by rank: the instant after which an
// undecided rule of the check probes arrivals, notProbing for every
// other rule, so an arrival at t probes rank r exactly when lo[r] < t.
// The walk clears base while lo holds its marks: a budget fault that
// unwinds through it leaves the index unbuilt, and the next walk
// rebuilds it clean.
type probeIndex struct {
	base  *event.Base
	off   []int32 // the ranks mentioning type id tid are ranks[off[tid]:off[tid+1]]
	ranks []int32
	all   []int32
	lo    []clock.Time
	// filed is the build's scratch; builds counts the builds.
	filed  []filing
	builds int
}

// filing is one (type id, rank) entry of the index under construction.
type filing struct{ tid, rank int32 }

// buildProbeIndex inverts the non-monotone rules' V(E) over the line's
// base. The mentioned types are interned (after Rebind or NewSession they
// already are), and a counting sort by type id files each rank under its
// types, keeping every list in rank order.
func (l *line) buildProbeIndex() {
	p := &l.probe
	p.builds++
	p.all, p.filed = p.all[:0], p.filed[:0]
	for _, st := range l.ordered {
		if st.monotone {
			continue
		}
		if st.Filter.MatchAll {
			p.all = append(p.all, st.rank)
			continue
		}
		for _, t := range st.Filter.MentionedTypes() {
			p.filed = append(p.filed, filing{l.base.InternType(t), st.rank})
		}
	}
	n := l.base.InternedTypes()
	p.off = append(p.off[:0], make([]int32, n+2)...)
	for _, f := range p.filed {
		p.off[f.tid+2]++
	}
	for i := 2; i < len(p.off); i++ {
		p.off[i] += p.off[i-1]
	}
	p.ranks = append(p.ranks[:0], make([]int32, len(p.filed))...)
	for _, f := range p.filed {
		p.ranks[p.off[f.tid+1]] = f.rank
		p.off[f.tid+1]++
	}
	p.off = p.off[:n+1]
	p.lo = append(p.lo[:0], make([]clock.Time, len(l.ordered))...)
	for i := range p.lo {
		p.lo[i] = notProbing
	}
	p.base = l.base
}

// walk is the check's one pass over the arrivals of (minLo, now]. Each
// arrival is fed to the prim cursors and probed by the undecided rules
// its type id files it under — the rules whose V(E) mentions its type,
// and the match-all rules — whose lo lies below it: one load per rule
// filed under it, so an arrival no rule mentions costs one table read.
// The memo generation of an instant opens at its first probe.
func (l *line) walk(pe *calculus.PlanEval, batch []*State, newest, minLo, now clock.Time) {
	p := &l.probe
	if p.base != l.base {
		l.buildProbeIndex()
	}
	p.base = nil
	open := 0
	for _, st := range batch {
		if !st.monotone && newest > st.LastConsideration {
			p.lo[st.rank] = max(st.lastProbe, st.LastConsideration)
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
			var mentioning []int32
			if int(tid) < len(p.off)-1 {
				mentioning = p.ranks[p.off[tid]:p.off[tid+1]]
			}
			for _, ranks := range [2][]int32{mentioning, p.all} {
				for _, r := range ranks {
					if p.lo[r] >= t {
						continue
					}
					if pe.Cur() != t {
						pe.Begin(t)
					}
					l.visits++
					st := l.ordered[r]
					if pe.TS(st.planRoot, t, st.LastConsideration).Active() {
						st.Triggered, st.TriggeredAt = true, t
						st.lastProbe, st.pending = now, false
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

// Pick returns the highest-priority triggered rule passing the filter.
func (s *Support) Pick(filter func(Def) bool) (string, bool) {
	s.rlockSynced()
	defer s.mu.RUnlock()
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
	l.each(l.trig, func(st *State) bool {
		if filter == nil || filter(st.Def) {
			name, ok = st.Def.Name, true
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

// Consider detriggers the rule and returns the event-formula window. The
// rule can be triggered again only by occurrences newer than this
// consideration (Section 2).
func (s *Support) Consider(name string, now clock.Time) (Consideration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.line.consider(name, now)
}

func (l *line) consider(name string, now clock.Time) (Consideration, error) {
	st, ok := l.rules[name]
	if !ok {
		return Consideration{}, fmt.Errorf("rules: no rule %q", name)
	}
	since := st.LastConsideration
	if st.Def.Consumption == Preserving {
		since = l.txnStart
	}
	c := Consideration{Rule: st.Def, Since: since, At: now}
	l.sync()
	if st.Triggered {
		st.Triggered = false
		l.trig.remove(st.rank)
		l.ntrig--
	}
	st.TriggeredAt = clock.Never
	st.lastProbe = now
	st.pending = false
	if old := st.LastConsideration; now != old {
		// The horizon leaves the minimum only if the rule held it, and the
		// minimum is rescanned only when its last holder leaves — or when
		// a caller hands in an instant at or below it, which a clock never
		// does.
		st.LastConsideration = now
		if old == l.wmMin {
			l.wmHolders--
		}
		if l.wmHolders == 0 || now <= l.wmMin {
			l.rescanWatermark()
		}
	}
	return c, nil
}
