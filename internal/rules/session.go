package rules

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
)

// Session is one transaction line's Trigger Support state: the bound
// Event Base, one mark per rule (last consideration, triggered flag and
// instant, probe cursor, pending bit) by rank, the block-boundary index
// over the marks, work counters and all check-path scratch. It is the
// only holder of marks: definitions, compiled V(E) filters, plan roots,
// ranks and the arrival table stay in the Support's registry, stored once
// whatever the number of lines. Sessions of one Support run their
// determinations fully in parallel: they share no mutable state, only
// atomic metric instruments and the read-only registry.
//
// While sessions are open the registry is frozen (Define and Drop
// fail), so the rule set a session's marks cover and the plan DAG its
// evaluator walks cannot change under it. The session adds its work
// counts to the Support's counters after every check and at Release.
// Release the session when its transaction ends: it goes back to the
// Support's idle pool, for a later NewSession to reuse with its scratch.
//
// The block-boundary index (queue, trig, wmMin; DESIGN.md "Block
// boundary") is derived state: at every instant it is not stale it
// equals what reindex would recompute from the marks, so a block
// boundary reads it instead of walking every defined rule. Three
// transitions maintain it — arrive, the fold at the end of
// CheckTriggered, and Consider — and whatever else rewrites marks
// (begin, RestoreMarks, a check a budget fault cut short) only sets
// stale.
//
// A Session is not safe for concurrent use: like the transaction whose
// line it is, it is driven by one goroutine at a time.
type Session struct {
	sup      *Support
	base     *event.Base
	txnStart clock.Time
	released bool
	// marks holds every defined rule's mark, at the rule's rank.
	marks []mark
	// stats counts the transaction's work; published is the part of it
	// already added to the Support's counters.
	stats, published Stats

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

	// gen numbers the savepoints, and was holds the first image since
	// the last one of every mark that changed (the marks whose saved is
	// gen): what Rewind restores.
	gen uint32
	was []markWas
}

// markWas is one mark as the savepoint found it, at its rank.
type markWas struct {
	r int32
	m mark
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
		sess = &Session{sup: s}
	}
	s.sessions++
	s.mu.Unlock()
	// The registry is frozen from here until the session's release, so
	// the session may size itself to it without the Support's lock.
	sess.released = false
	sess.begin(base, start)
	return sess
}

// Release closes the session: it publishes what it has not yet (a check
// its budget cut short), joins the idle pool, and the registry unfreezes
// once the last session is gone. Idempotent; the session must not be
// used after it.
func (sess *Session) Release() {
	if sess.released {
		return
	}
	sess.released = true
	if sess.eval != nil {
		sess.count() // a check its budget cut short left them uncounted
	}
	sess.publish()
	// An idle session holds no Event Base: the transaction's log is
	// collectable as soon as the transaction lets go of it.
	sess.stats, sess.published, sess.base, sess.budget = Stats{}, Stats{}, nil, nil
	if sess.eval != nil {
		sess.eval.Unbind()
	}
	s := sess.sup
	s.mu.Lock()
	s.sessions--
	s.idle = append(s.idle, sess)
	s.mu.Unlock()
}

// begin opens the session's transaction at start over base: every rule's
// horizon at start, nothing triggered or pending.
func (sess *Session) begin(base *event.Base, start clock.Time) {
	sess.base, sess.txnStart = base, start
	n := len(sess.sup.ordered)
	sess.marks = slices.Grow(sess.marks[:0], n)[:n]
	for i := range sess.marks {
		sess.marks[i] = mark{lastConsideration: start, lastProbe: start, triggeredAt: clock.Never}
	}
	sess.stale = true
	sess.Savepoint()
}

// Savepoint makes the marks as they stand the state Rewind returns to.
// It costs O(1) and allocates nothing, whatever the number of rules.
func (sess *Session) Savepoint() {
	sess.was = sess.was[:0]
	if sess.gen++; sess.gen == 0 {
		// The generation wrapped: no mark may claim the new one.
		for i := range sess.marks {
			sess.marks[i].saved = 0
		}
		sess.gen = 1
	}
}

// Rewind restores every mark changed since the last Savepoint to its
// image there. The block-boundary index is rebuilt at its next use:
// O(rules), paid by a refused block only.
func (sess *Session) Rewind() {
	for i := len(sess.was) - 1; i >= 0; i-- {
		sess.marks[sess.was[i].r] = sess.was[i].m
	}
	sess.was = sess.was[:0]
	sess.stale = true
}

// save logs rank r's mark for Rewind, the first time it changes since
// the savepoint. Every transition of a mark after begin goes through it.
func (sess *Session) save(r int32) {
	if m := &sess.marks[r]; m.saved != sess.gen {
		sess.was = append(sess.was, markWas{r, *m})
		m.saved = sess.gen
	}
}

// Start returns the instant the session's transaction began.
func (sess *Session) Start() clock.Time { return sess.txnStart }

// Stats snapshots the session's private work counters.
func (sess *Session) Stats() Stats { return sess.stats }

// SetBudget installs (or, with nil, clears) the evaluation budget the
// session's determinations charge against. Exhaustion surfaces from
// CheckTriggered as a budget fault the engine converts into the typed
// error (calculus.ErrGasExhausted / calculus.ErrDeadlineExceeded).
func (sess *Session) SetBudget(b *calculus.Budget) { sess.budget = b }

// sync brings the index up to date with the marks. Every method that
// reads or maintains the index starts with it.
func (sess *Session) sync() {
	if sess.stale {
		sess.reindex()
	}
}

// reindex recomputes the whole index from the marks: the worklist from
// pending, the triggered set from triggered, the watermark from the last
// considerations. It is the definition the incremental transitions are
// held to (Session.checkIndex, in the tests, compares the two).
func (sess *Session) reindex() {
	words := (len(sess.marks) + 63) >> 6
	sess.queue = zeroed(sess.queue, words)
	sess.trig = zeroed(sess.trig, words)
	sess.queued, sess.ntrig = false, 0
	for i := range sess.marks {
		switch m := &sess.marks[i]; {
		case m.triggered:
			sess.trig.add(int32(i))
			sess.ntrig++
		case m.pending:
			sess.queue.add(int32(i))
			sess.queued = true
		}
	}
	sess.rescanWatermark()
	sess.stale = false
}

// rescanWatermark recomputes the least consideration horizon and the
// number of rules holding it.
func (sess *Session) rescanWatermark() {
	sess.wmMin, sess.wmHolders = sess.txnStart, 0
	for i := range sess.marks {
		switch lc := sess.marks[i].lastConsideration; {
		case i == 0 || lc < sess.wmMin:
			sess.wmMin, sess.wmHolders = lc, 1
		case lc == sess.wmMin:
			sess.wmHolders++
		}
	}
}

// Watermark is the session's consumption low-watermark: the minimum over
// all defined rules of the (exclusive) start of the window the rule can
// still observe — the last consideration for consuming rules, the
// transaction start for preserving ones (whose event formulas always
// reach back to the transaction start). Every occurrence at or below it
// is invisible to every rule, so the Event Base may retire it; the engine
// feeds the value to event.Base.CompactBelow at block boundaries.
//
// The call reads the index — the least last consideration and how many
// rules hold it, which Consider keeps current and rescans only when the
// last holder moves — so it costs the same under one rule and under ten
// thousand. With no rules defined it conservatively returns the
// transaction start, keeping the whole log available to ad-hoc window
// queries.
func (sess *Session) Watermark() clock.Time {
	sess.sync()
	if sess.sup.preserving > 0 || len(sess.marks) == 0 {
		return sess.txnStart
	}
	return sess.wmMin
}

// NotifyArrivals tells the session about freshly logged occurrences, by
// the registry type ids their appends returned (event.Base.AppendTID),
// and marks the rules those arrivals are relevant to: by the V(E) static
// optimization of Section 5.1, a rule whose V(E) gives the arrival's type
// a Δ+ or Δ± variation (a pure Δ− arrival cannot raise ts, so a
// non-triggered rule skips it), and every match-all rule. This is the
// Event Handler → Trigger Support hand-off of Section 5: one read of the
// arrival table per arrival, and a type id past the table (a type no
// rule mentions, registered after the table was built) reaches the
// match-all rules only.
func (sess *Session) NotifyArrivals(tids []int32) {
	if len(tids) == 0 {
		return
	}
	sess.sync()
	for _, r := range sess.sup.matchAll {
		sess.arrive(r)
	}
	for _, tid := range tids {
		for _, r := range sess.sup.listen.of(tid) {
			sess.arrive(r)
		}
	}
}

// arrive is the arrival→pending transition: a rule a relevant arrival
// reaches joins the worklist the moment its flag flips.
func (sess *Session) arrive(r int32) {
	m := &sess.marks[r]
	if m.pending || m.triggered {
		return
	}
	sess.save(r)
	m.pending = true
	sess.queue.add(r)
	sess.queued = true
}

// CheckTriggered runs the triggering determination at a block boundary:
// for every non-triggered rule (skipping rules with no relevant arrival)
// it decides T(r, now) and flips the triggered flag. It returns the names
// of newly triggered rules in priority order. The returned slice is
// recycled across calls: it is valid until the next one.
func (sess *Session) CheckTriggered(now clock.Time) []string {
	sess.sync()
	sess.stats.Checks++
	// Every non-triggered rule is examined; the batch is those of them
	// that need a ts evaluation — the worklist, whose ranks come out of
	// the set already in queue order. An empty worklist — the block after
	// a consideration whose action logged nothing — visits no rule at all.
	examined := len(sess.marks) - sess.ntrig
	batch := sess.checkBuf[:0]
	if sess.queued {
		sess.queue.each(func(r int32) bool {
			if m := &sess.marks[r]; m.pending && !m.triggered {
				sess.save(r) // the check writes the marks of its batch only
				batch = append(batch, r)
			}
			return true
		})
		// The check settles every pending rule.
		clear(sess.queue)
		sess.queued = false
	}
	sess.stats.RulesExamined += int64(examined)
	sess.stats.RulesSkipped += int64(examined - len(batch))
	sess.checkBuf = batch
	// The evaluator writes triggered and pending into the marks only; the
	// index learns of it in the fold below. A budget fault unwinding from
	// here skips the fold, and stale makes the next reader rebuild from
	// what the marks then say.
	sess.stale = true
	sess.checkShared(batch, now)
	sess.publish()
	met, plan := sess.sup.opts.Metrics, sess.sup.plan
	met.BatchRules.Observe(int64(len(batch)))
	met.PlanNodes.Set(int64(plan.Live()))
	met.PlanShared.Set(int64(plan.Shared()))
	// The result slice is recycled across checks (no allocation on busy
	// boundaries); callers must not retain it past the next call. The
	// same pass is the check→triggered transition of the index.
	fired := sess.firedBuf[:0]
	for _, r := range batch {
		if sess.marks[r].triggered {
			sess.trig.add(r)
			sess.ntrig++
			fired = append(fired, sess.sup.ordered[r].Def.Name)
		}
	}
	sess.stale = false
	sess.firedBuf = fired
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
func (sess *Session) checkShared(batch []int32, now clock.Time) {
	rules := sess.sup.ordered
	// R = (since, now] is empty exactly when the newest arrival at or
	// before now is at or below since: one comparison per rule.
	newest := sess.base.Newest(now)
	floor, minLo := now, now
	for _, r := range batch {
		m := &sess.marks[r]
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
	if sess.eval == nil {
		sess.eval = calculus.NewPlanEval(sess.sup.plan)
		// The walk feeds every arrival to the evaluator in timestamp
		// order, so the prim cursors apply.
		sess.eval.Track(true)
	}
	pe := sess.eval
	pe.Budget = sess.budget
	pe.Bind(sess.base, floor)
	walked := minLo < now
	if walked {
		sess.walk(pe, batch, newest, minLo, now)
	}
	if pe.Cur() != now {
		pe.Begin(now)
	}
	for _, r := range batch {
		if walked {
			sess.probe.lo[r] = notProbing
		}
		m := &sess.marks[r]
		since := m.lastConsideration
		if m.triggered || newest <= since {
			continue // at an arrival of the walk, or R = ∅
		}
		if st := rules[r]; st.monotone {
			if v := pe.TS(st.planRoot, now, since); v.Active() {
				m.triggered, m.triggeredAt = true, v.Time()
				sess.stats.Triggerings++
			}
		} else if now > max(m.lastProbe, since) && pe.TS(st.planRoot, now, since).Active() {
			m.triggered, m.triggeredAt = true, now
			sess.stats.Triggerings++
		}
		m.lastProbe, m.pending = now, false
	}
	if walked {
		sess.probe.walking = false
	}
	sess.count()
}

// count moves the evaluator's counters into the session's.
func (sess *Session) count() {
	evals, hits := sess.eval.TakeCounters()
	sess.stats.TsEvaluations += evals
	sess.stats.MemoMisses += evals
	sess.stats.MemoHits += hits
}

// publish adds what the session counted since its last publication to
// the Support's counters.
func (sess *Session) publish() {
	m, c, p := sess.sup.opts.Metrics, &sess.stats, &sess.published
	m.Checks.Add(c.Checks - p.Checks)
	m.RulesExamined.Add(c.RulesExamined - p.RulesExamined)
	m.RulesSkipped.Add(c.RulesSkipped - p.RulesSkipped)
	m.TsEvals.Add(c.TsEvaluations - p.TsEvaluations)
	m.MemoHits.Add(c.MemoHits - p.MemoHits)
	m.MemoMisses.Add(c.MemoMisses - p.MemoMisses)
	m.Triggerings.Add(c.Triggerings - p.Triggerings)
	*p = *c
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
func (sess *Session) walk(pe *calculus.PlanEval, batch []int32, newest, minLo, now clock.Time) {
	p := &sess.probe
	if p.walking || len(p.lo) != len(sess.marks) {
		p.lo = slices.Grow(p.lo[:0], len(sess.marks))[:len(sess.marks)]
		for i := range p.lo {
			p.lo[i] = notProbing
		}
	}
	p.walking = true
	rules := sess.sup.ordered
	open := 0
	for _, r := range batch {
		m := &sess.marks[r]
		if !rules[r].monotone && newest > m.lastConsideration {
			p.lo[r] = max(m.lastProbe, m.lastConsideration)
			open++
		}
	}
	for cursor := minLo; ; {
		cols := sess.base.ChunkCols(cursor, now)
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
			for _, ranks := range [2][]int32{sess.sup.listen.probes(tid), sess.sup.probeAll} {
				for _, r := range ranks {
					if p.lo[r] >= t {
						continue
					}
					if pe.Cur() != t {
						pe.Begin(t)
					}
					sess.visits++
					m := &sess.marks[r]
					if pe.TS(rules[r].planRoot, t, m.lastConsideration).Active() {
						m.triggered, m.triggeredAt = true, t
						m.lastProbe, m.pending = now, false
						p.lo[r] = notProbing
						sess.stats.Triggerings++
						open--
					}
				}
			}
		}
		cursor = cols.TS[len(cols.TS)-1]
	}
}

// Pick returns the highest-priority triggered rule passing filter: the
// engine picks once per consideration, so it must not build the list it
// discards. The lowest set rank is the head of the queue among the
// triggered.
func (sess *Session) Pick(filter func(Def) bool) (name string, ok bool) {
	sess.sync()
	if sess.ntrig == 0 {
		return "", false
	}
	sess.trig.each(func(r int32) bool {
		if d := sess.sup.ordered[r].Def; filter == nil || filter(d) {
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

// Consider detriggers the rule and returns the event-formula window. The
// rule can be triggered again only by occurrences newer than this
// consideration (Section 2).
func (sess *Session) Consider(name string, now clock.Time) (Consideration, error) {
	st, ok := sess.sup.rules[name]
	if !ok {
		return Consideration{}, fmt.Errorf("rules: no rule %q", name)
	}
	m := &sess.marks[st.rank]
	since := m.lastConsideration
	if st.Def.Consumption == Preserving {
		since = sess.txnStart
	}
	c := Consideration{Rule: st.Def, Since: since, At: now}
	sess.sync()
	sess.save(st.rank)
	if m.triggered {
		m.triggered = false
		sess.trig.remove(st.rank)
		sess.ntrig--
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
		if old == sess.wmMin {
			sess.wmHolders--
		}
		if sess.wmHolders == 0 || now <= sess.wmMin {
			sess.rescanWatermark()
		}
	}
	return c, nil
}

// BeginTransaction releases the Support's own Session, if it has one,
// and opens a new one at start over the base NewSupport was given;
// NotifyArrivals, CheckTriggered, Pick, Consider and Watermark call it.
// These six exist for the rules kernel of the benchmark
// (benchmark/kernels.go) only, take no lock themselves, and go once that
// kernel opens a Session itself (ROADMAP item 9). While the own Session
// is open, Define and Drop fail as under any other.
func (s *Support) BeginTransaction(start clock.Time) {
	if s.own != nil {
		s.own.Release()
	}
	s.own = s.NewSession(s.base, start)
}

// NotifyArrivals resolves each occurrence's type to its registry id and
// announces the ids to the own Session (kernel-only; see
// BeginTransaction).
func (s *Support) NotifyArrivals(occs []event.Occurrence) {
	tids := s.tids[:0]
	for _, occ := range occs {
		tids = append(tids, s.reg.Intern(occ.Type))
	}
	s.tids = tids
	s.own.NotifyArrivals(tids)
}

// CheckTriggered is the own Session's CheckTriggered (kernel-only; see
// BeginTransaction).
func (s *Support) CheckTriggered(now clock.Time) []string { return s.own.CheckTriggered(now) }

// Pick is the own Session's Pick (kernel-only; see BeginTransaction).
func (s *Support) Pick(filter func(Def) bool) (string, bool) { return s.own.Pick(filter) }

// Consider is the own Session's Consider (kernel-only; see
// BeginTransaction).
func (s *Support) Consider(name string, now clock.Time) (Consideration, error) {
	return s.own.Consider(name, now)
}

// Watermark is the own Session's Watermark (kernel-only; see
// BeginTransaction).
func (s *Support) Watermark() clock.Time { return s.own.Watermark() }
