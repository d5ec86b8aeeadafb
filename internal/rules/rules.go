// Package rules implements Chimera's rule-side machinery: rule
// definitions (triggering event expression, EC coupling mode, event
// consumption mode, priority, optional class target), the Rule Table of
// Section 5 (hash access plus a priority queue), and the Trigger Support
// that maintains each rule's internal state — last consideration, last
// consumption, triggered flag — and decides triggering with the event
// calculus.
//
// That state exists for one transaction (Section 5: every horizon resets
// when a transaction starts), so it lives on the transaction's Session,
// the one type that holds marks: one mark per rule, the block-boundary
// index over the marks, the evaluator and the check's scratch. The
// Support holds what every Session reads — the definitions, V(E)
// filters, the interned plan and the arrival table, keyed by the type
// ids of the registry every Session's Event Base shares — once, and
// recycles released Sessions for the transactions after them.
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
// shared by every rule whatever its consideration horizon; each Session
// has its own. Conditions' event formulas (package cond, over the
// engine's condition plan) and the shell's explain build evaluators of
// their own. The recursive calculus.Env is the definition the walk is
// held to: the tests keep the per-rule determination over it as the
// oracle.
//
// # Concurrency
//
// Support is safe for concurrent use. Define and Drop take the mutex
// exclusively; read-only operations (Rule, Rules, Stats, Plan,
// HasDeferred) take it shared, so inspection never serializes against
// other readers. Every transaction runs on its own Session, driven by
// one goroutine over the transaction's own Event Base, so Sessions run
// their determinations in parallel, sharing only the registry (frozen
// while any Session is open). See DESIGN.md §7 for the lock hierarchy.
package rules

import (
	"fmt"
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
// transaction lines; what a Session changes per rule is its mark.
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
	// (Support.ordered): the index of its mark in every Session and the
	// coordinate of every Session's block-boundary index. Define and Drop
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

// mark is one rule's state on one Session: the paper's per-rule record of
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
	// saved is the savepoint generation whose log holds this mark's
	// image (Session.save).
	saved uint32
}

// Options configures a Support.
type Options struct {
	// Metrics, when non-nil, is the instrument set the support reports
	// into, and its seven counters are the ones Support.Stats reads; nil
	// gives the Support counters of its own (NewSupportMetrics(nil)).
	// Each Session adds its counts to them in bulk after every check and
	// at Release (counter deltas, not per-rule atomics), so reporting
	// costs a constant per block boundary. Instrumentation never changes
	// outcomes — the differential suite in internal/engine pins
	// metrics-on vs metrics-off runs to identical triggerings and
	// database states.
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
	// rules minus triggered rules, read off the Session's index.
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

// SupportMetrics is the Trigger Support's instrument set. Its seven
// counters are the Support's only count of its Stats; the batch
// histogram and the plan gauges are nil (not reported) without a
// registry.
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
// registry. A nil registry yields seven counters of the Support's own
// and no histogram or gauge.
func NewSupportMetrics(r *metrics.Registry) *SupportMetrics {
	// counter resolves a counter behind a Stats field.
	counter := func(name string) *metrics.Counter {
		if r == nil {
			return new(metrics.Counter)
		}
		return r.Counter(name)
	}
	return &SupportMetrics{
		Checks:        counter("chimera_trigger_checks_total"),
		RulesExamined: counter("chimera_trigger_rules_examined_total"),
		RulesSkipped:  counter("chimera_trigger_rules_skipped_total"),
		TsEvals:       counter("chimera_trigger_ts_evals_total"),
		Triggerings:   counter("chimera_trigger_triggerings_total"),
		BatchRules: r.Histogram("chimera_trigger_batch_rules",
			1, 4, 16, 64, 256, 1024, 4096),
		MemoHits:   counter("chimera_plan_memo_hits_total"),
		MemoMisses: counter("chimera_plan_memo_misses_total"),
		PlanNodes:  r.Gauge("chimera_plan_nodes"),
		PlanShared: r.Gauge("chimera_plan_shared_nodes"),
	}
}

// zeroed returns n zero elements in s's storage when it has room for
// them, in new storage otherwise: the derived state a Session rebuilds
// reuses its buffers without relying on the compiler to elide a
// temporary.
func zeroed[S ~[]E, E any](s S, n int) S {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Support is the Trigger Support plus Rule Table: the registry of
// defined rules every Session reads, the pool of idle Sessions, and the
// aggregate work counters (Options.Metrics). It holds no mark.
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
	// rule pins every Session's consumption low-watermark at its transaction
	// start (its event-formula window always reaches back there), so the
	// watermark short-circuits on the counter.
	preserving int
	// deferred counts the defined deferred-coupling rules. The engine's
	// commit path skips the under-latch deferred-rule phase entirely when
	// it is zero; the count is stable while any session is open (the
	// registry is frozen), so the skip decision cannot race a Define.
	deferred int
	// reg is the type registry every Session's base shares: the base's
	// NewSupport was given, else the first Session's.
	reg *event.Registry
	// What every Session reads to mark and probe rules, rebuilt by derive
	// after Define or Drop (derived false until then). listen is the
	// arrival table: the rules an arrival of each type id marks pending
	// (see Session.NotifyArrivals) — the rules whose V(E) gives the type a Δ+ or
	// Δ± variation — and, in the prefix of each list, the non-monotone
	// ones, which the arrival walk probes at it (see walk). matchAll holds
	// the ranks of the rules with vacuously active expressions, which
	// every arrival reaches, the non-monotone ones first; probeAll is that
	// prefix. No arrival is ever hashed by its Type here.
	derived  bool
	listen   table
	matchAll []int32
	probeAll []int32
	// sessions counts the open Sessions. While any are open the rule set
	// (and with it the plan DAG their evaluators walk) is frozen: Define
	// and Drop fail. idle holds released Sessions for NewSession to
	// reuse; Define and Drop empty it, since its Sessions are sized to the
	// old rule set and their evaluators walk the old plan.
	sessions int
	idle     []*Session
	// base, own and tids serve the kernel-only calls (see
	// BeginTransaction): the base NewSupport was given, the Session
	// BeginTransaction opened over it, and NotifyArrivals' scratch.
	base *event.Base
	own  *Session
	tids []int32
}

// NewSupport builds a Trigger Support over base's type registry: every
// Session's base must share it. With a nil base, the first Session's
// registry is the Support's.
func NewSupport(base *event.Base, opts Options) *Support {
	if opts.Metrics == nil {
		opts.Metrics = NewSupportMetrics(nil)
	}
	s := &Support{
		opts:  opts,
		plan:  calculus.NewPlan(),
		rules: make(map[string]*State),
		base:  base,
	}
	if base != nil {
		s.reg = base.Registry()
	}
	return s
}

// Define registers a rule. It fails while any Session is open: the
// Sessions opened after it give the rule a mark.
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

// changed invalidates what depends on the rule set: the derived tables
// (rebuilt by the next NewSession, so loading N rules derives once, not
// N times) and the idle Sessions.
func (s *Support) changed() {
	s.derived = false
	s.idle = nil
}

// HasDeferred reports whether any deferred-coupling rule is defined.
// While sessions are open the registry is frozen, so a commit pipeline
// reading it once per commit observes a stable value.
func (s *Support) HasDeferred() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.deferred > 0
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
		s.preserving--
	}
	if st.Def.Coupling == Deferred {
		s.deferred--
	}
	// The rule leaves the queue, so every rank after it moves.
	i := int(st.rank)
	s.order = slices.Delete(s.order, i, i+1)
	s.ordered = slices.Delete(s.ordered, i, i+1)
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

// Stats reads the work counters of every check a Session completed,
// in open Sessions too, and of every check a budget cut short in a
// released one. It takes no lock: it reads Options.Metrics' counters,
// one at a time, so a check finishing meanwhile may show in some fields
// and not yet in others.
func (s *Support) Stats() Stats {
	m := s.opts.Metrics
	return Stats{
		Checks:        m.Checks.Value(),
		RulesExamined: m.RulesExamined.Value(),
		RulesSkipped:  m.RulesSkipped.Value(),
		TsEvaluations: m.TsEvals.Value(),
		MemoHits:      m.MemoHits.Value(),
		MemoMisses:    m.MemoMisses.Value(),
		Triggerings:   m.Triggerings.Value(),
	}
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

// derive rebuilds what every Session reads (see Support.derived) if
// Define or Drop changed the rule set since, registering the types it
// files rules under. It runs once per rule set, not once per Session.
// NewSession calls it, holding the mutex, once the Support knows its
// registry.
func (s *Support) derive() {
	if s.derived {
		return
	}
	var filings []filing
	var filed []event.Type // filings[i]'s type
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
				filings = append(filings, filing{rank: st.rank})
				filed = append(filed, t)
			}
		}
		if !monotone {
			probed, probeAll = len(filings), len(s.matchAll)
		}
	}
	// One registration for the whole rule set: interning type by type
	// would copy the registry's table once per new type.
	for i, tid := range s.reg.InternAll(filed, nil) {
		filings[i].tid = tid
	}
	s.probeAll = s.matchAll[:probeAll]
	s.listen.build(filings, probed)
	s.derived = true
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
