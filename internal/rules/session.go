package rules

import (
	"sync"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
)

// View is the per-transaction-line face of the Trigger Support: the
// operations the engine's rule-processing loop needs against one line's
// Event Base and consumption state. Two implementations exist — the
// Support itself (its embedded default line, serving the classic
// single-session engine bit for bit) and Session (an independent line
// over the same rule registry, for concurrent transactions).
type View interface {
	// NotifyArrivals is the Event Handler → Trigger Support hand-off.
	NotifyArrivals(occs []event.Occurrence)
	// CheckTriggered runs the triggering determination at a block
	// boundary and returns newly triggered rules in priority order.
	CheckTriggered(now clock.Time) []string
	// Watermark is the line's consumption low-watermark (see
	// Support.Watermark).
	Watermark() clock.Time
	// Consider detriggers a rule and returns its event-formula window.
	Consider(name string, now clock.Time) (Consideration, error)
	// Triggered lists currently triggered rules in priority order.
	Triggered(filter func(Def) bool) []string
	// Pick returns the highest-priority triggered rule passing filter.
	Pick(filter func(Def) bool) (string, bool)
	// Rule returns a copy of the line's state for one rule.
	Rule(name string) (State, bool)
	// Mark returns one rule's durable state (see Support.Mark).
	Mark(name string) (Mark, bool)
	// Stats snapshots the line's work counters.
	Stats() Stats
	// TxnStart is the line's transaction start instant.
	TxnStart() clock.Time
	// SetBudget installs (or, with nil, clears) the evaluation budget
	// this line's triggering determinations charge against. Exhaustion
	// surfaces from CheckTriggered as a budget fault the engine converts
	// into the typed error (calculus.ErrGasExhausted /
	// calculus.ErrDeadlineExceeded).
	SetBudget(b *calculus.Budget)
}

var (
	_ View = (*Support)(nil)
	_ View = (*Session)(nil)
)

// Session is one concurrent transaction line's Trigger Support state: a
// private set of per-rule records (last consideration, triggered flag,
// probe cursors, memo scratch) over the Support's shared,
// immutable rule registry — definitions, compiled V(E) filters and the
// interned plan DAG stay global, exactly the split the multi-session
// engine needs. Sessions of one Support run their determinations fully
// in parallel: they share no mutable state, only atomic metric
// instruments and the read-only registry.
//
// While sessions are open the registry is frozen (Define and Drop
// fail), so the plan DAG the sessions' evaluators walk cannot change
// under them. Release the session when its transaction ends; its work
// counters then fold into the Support's aggregate Stats.
//
// A Session is safe for concurrent use, but the expected pattern is one
// goroutine per session (the transaction's line).
type Session struct {
	mu       sync.Mutex
	sup      *Support
	released bool
	line
}

// NewSession opens a per-transaction view over the rule registry, bound
// to the transaction's Event Base with every rule's horizon at start.
func (s *Support) NewSession(base *event.Base, start clock.Time) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := &Session{
		sup: s,
		line: line{
			base:     base,
			txnStart: start,
			rules:    make(map[string]*State, len(s.rules)),
			byType:   make(map[event.Type][]*State),
			order:    make([]string, 0, len(s.order)),
			ordered:  make([]*State, 0, len(s.order)),
		},
	}
	// Intern the rule vocabulary into the fresh base eagerly, in the
	// same deterministic order Rebind uses for the single-session line.
	// The probe machinery would intern lazily at the first triggering
	// determination; doing it here pins the interner's id assignment to
	// a pure function of the rule set and the append order — the
	// property multi-session WAL replay (which re-runs appends but not
	// determinations) relies on to reproduce the logged type ids.
	s.internVocabulary(base)
	for _, name := range s.order {
		reg := s.rules[name]
		st := &State{
			Def:               reg.Def,
			Filter:            reg.Filter, // immutable, shared read-only
			LastConsideration: start,
			TriggeredAt:       clock.Never,
			lastProbe:         start,
			monotone:          reg.monotone,
			planRoot:          reg.planRoot,
		}
		sess.line.rules[name] = st
		sess.line.order = append(sess.line.order, name)
		sess.line.ordered = append(sess.line.ordered, st)
		if st.Def.Consumption == Preserving {
			sess.line.preserving++
		}
		sess.line.index(st)
	}
	sess.line.stale = true
	s.sessions++
	return sess
}

// Sessions returns the number of open sessions.
func (s *Support) Sessions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions
}

// Release closes the session, folding its work counters into the
// Support's aggregate Stats and unfreezing the registry once the last
// session is gone. Idempotent.
func (sess *Session) Release() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.released {
		return
	}
	sess.released = true
	sess.sup.mu.Lock()
	sess.sup.sessions--
	sess.sup.stats.add(sess.stats)
	sess.sup.mu.Unlock()
}

// NotifyArrivals marks the session's rules relevant arrivals pend on.
func (sess *Session) NotifyArrivals(occs []event.Occurrence) {
	if len(occs) == 0 {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.line.notifyArrivals(occs)
}

// CheckTriggered runs the session's triggering determination. The
// returned slice is recycled across calls (see Support.CheckTriggered).
func (sess *Session) CheckTriggered(now clock.Time) []string {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.checkTriggered(now, sess.sup.opts.Metrics, sess.sup.plan)
}

// SetBudget installs the session's evaluation budget (nil = unlimited).
func (sess *Session) SetBudget(b *calculus.Budget) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.line.budget = b
}

// Watermark is the session's consumption low-watermark.
func (sess *Session) Watermark() clock.Time {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.watermark()
}

// Consider detriggers the rule in this session and returns its window.
func (sess *Session) Consider(name string, now clock.Time) (Consideration, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.consider(name, now)
}

// Triggered lists the session's currently triggered rules.
func (sess *Session) Triggered(filter func(Def) bool) []string {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.triggeredNames(filter)
}

// Pick returns the session's highest-priority triggered rule.
func (sess *Session) Pick(filter func(Def) bool) (string, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.pick(filter)
}

// RestoreTriggered reinstates one rule's triggered flag in this session
// during multi-session WAL replay — the session-scoped twin of
// Support.RestoreTriggered (fired marks are per-line state, so replaying
// a concurrent line's block must restore them into that line's session,
// never the shared registry).
func (sess *Session) RestoreTriggered(name string, at clock.Time) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.restoreTriggered(name, at)
}

// Rule returns a copy of the session's state for one rule.
func (sess *Session) Rule(name string) (State, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.rule(name)
}

// Mark returns one rule's durable state in this session.
func (sess *Session) Mark(name string) (Mark, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.line.mark(name)
}

// Stats snapshots the session's private work counters.
func (sess *Session) Stats() Stats {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.stats
}

// TxnStart is the session's transaction start instant.
func (sess *Session) TxnStart() clock.Time {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.txnStart
}
