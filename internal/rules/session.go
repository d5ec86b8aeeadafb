package rules

import (
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
)

// Session is one transaction line's Trigger Support state: one mark per
// rule (last consideration, triggered flag and instant, probe cursor,
// pending bit), the block-boundary index over them and the check's
// scratch. Definitions, compiled V(E) filters, plan roots, ranks and the
// arrival table stay in the Support's registry, stored once whatever the
// number of lines. Sessions of one Support run their determinations
// fully in parallel: they share no mutable state, only atomic metric
// instruments and the read-only registry.
//
// While sessions are open the registry is frozen (Define and Drop
// fail), so the plan DAG the sessions' evaluators walk cannot change
// under them. Release the session when its transaction ends: its work
// counters fold into the Support's aggregate Stats, and the session goes
// back to the Support's idle pool, for a later NewSession to reuse with
// its scratch.
//
// A Session is not safe for concurrent use: like the transaction whose
// line it is, it is driven by one goroutine at a time.
type Session struct {
	released bool
	line
}

// NewSession opens a transaction line over the rule registry, bound to
// the transaction's Event Base with every rule's horizon at start. It
// reuses an idle session when the pool has one, and builds no table: the
// arrival table is the Support's, derived once per rule set. The base
// must share the Support's type registry (see NewSupport).
func (s *Support) NewSession(base *event.Base, start clock.Time) *Session {
	s.mu.Lock()
	if s.reg == nil {
		s.reg = base.Registry()
	} else if base.Registry() != s.reg {
		s.mu.Unlock()
		panic("rules: session base does not share the support's type registry")
	}
	s.derive()
	var sess *Session
	if n := len(s.idle); n > 0 {
		sess = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else {
		sess = &Session{line: line{sup: s}}
	}
	s.sessions++
	s.mu.Unlock()
	// The registry is frozen from here until the session's release, so
	// the line may size itself to it without the Support's lock.
	sess.released = false
	sess.line.begin(base, start)
	return sess
}

// Release closes the session: its work counters fold into the Support's
// aggregate Stats, the session joins the idle pool, and the registry
// unfreezes once the last session is gone. Idempotent; the session must
// not be used after it.
func (sess *Session) Release() {
	if sess.released {
		return
	}
	sess.released = true
	if sess.eval != nil {
		sess.count() // a check its budget cut short left them uncounted
	}
	stats := sess.stats
	// An idle session holds no Event Base: the transaction's log is
	// collectable as soon as the transaction lets go of it.
	sess.stats, sess.base, sess.budget = Stats{}, nil, nil
	if sess.eval != nil {
		sess.eval.Unbind()
	}
	s := sess.sup
	s.mu.Lock()
	s.sessions--
	s.stats.add(stats)
	s.idle = append(s.idle, sess)
	s.mu.Unlock()
}

// Start returns the instant the session's transaction began.
func (sess *Session) Start() clock.Time { return sess.txnStart }

// NotifyArrivals tells the session about freshly logged occurrences, by
// the registry type ids their appends returned (event.Base.AppendTID),
// and marks
// the rules those arrivals are relevant to (the Event Handler → Trigger
// Support hand-off of Section 5).
func (sess *Session) NotifyArrivals(tids []int32) {
	if len(tids) == 0 {
		return
	}
	sess.line.notifyArrivals(tids)
}

// CheckTriggered runs the triggering determination at a block boundary
// and returns the newly triggered rules in priority order. The returned
// slice is recycled across calls: it is valid until the next one.
func (sess *Session) CheckTriggered(now clock.Time) []string { return sess.line.checkTriggered(now) }

// SetBudget installs (or, with nil, clears) the evaluation budget the
// session's determinations charge against. Exhaustion surfaces from
// CheckTriggered as a budget fault the engine converts into the typed
// error (calculus.ErrGasExhausted / calculus.ErrDeadlineExceeded).
func (sess *Session) SetBudget(b *calculus.Budget) { sess.line.budget = b }

// Watermark is the session's consumption low-watermark: every
// occurrence at or below it is invisible to every rule, so the Event
// Base may retire it (see line.watermark).
func (sess *Session) Watermark() clock.Time { return sess.line.watermark() }

// Consider detriggers the rule and returns its event-formula window.
func (sess *Session) Consider(name string, now clock.Time) (Consideration, error) {
	return sess.line.consider(name, now)
}

// Pick returns the highest-priority triggered rule passing filter.
func (sess *Session) Pick(filter func(Def) bool) (string, bool) { return sess.line.pick(filter) }

// RestoreTriggered reinstates one rule's triggered flag during WAL
// replay (see line.restoreTriggered).
func (sess *Session) RestoreTriggered(name string, at clock.Time) error {
	return sess.line.restoreTriggered(name, at)
}

// RestoreMarks reinstates a checkpoint's marks (see line.restoreMarks).
func (sess *Session) RestoreMarks(ms []Mark) error { return sess.line.restoreMarks(ms) }

// Mark returns one rule's durable state in this session.
func (sess *Session) Mark(name string) (Mark, bool) { return sess.line.markOf(name) }

// Marks snapshots every defined rule's durable state in this session,
// in priority order.
func (sess *Session) Marks() []Mark { return sess.line.exportMarks() }

// Stats snapshots the session's private work counters.
func (sess *Session) Stats() Stats { return sess.stats }
