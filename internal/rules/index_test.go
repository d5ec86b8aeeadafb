package rules

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// checkIndex holds the block-boundary index to its definition: whenever
// it is not stale it must equal what a recomputation from the marks
// yields — triggered set, watermark — and the worklist must hold every
// rule a check would have to evaluate; the registry's ranks must be the
// queue positions.
func (sess *Session) checkIndex() error {
	if sess.stale {
		return nil
	}
	if len(sess.marks) != len(sess.sup.ordered) {
		return fmt.Errorf("%d marks for %d rules", len(sess.marks), len(sess.sup.ordered))
	}
	words := (len(sess.marks) + 63) >> 6
	if len(sess.queue) != words || len(sess.trig) != words {
		return fmt.Errorf("sets of %d and %d words for %d rules", len(sess.queue), len(sess.trig), len(sess.marks))
	}
	has := func(b rankSet, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
	ntrig, queued := 0, 0
	for _, w := range sess.trig {
		ntrig += bits.OnesCount64(w)
	}
	for _, w := range sess.queue {
		queued += bits.OnesCount64(w)
	}
	if ntrig != sess.ntrig {
		return fmt.Errorf("ntrig = %d, set holds %d", sess.ntrig, ntrig)
	}
	if queued > 0 && !sess.queued {
		return fmt.Errorf("worklist holds %d rules but is marked empty", queued)
	}
	for i, st := range sess.sup.ordered {
		m := sess.marks[i]
		if int(st.rank) != i {
			return fmt.Errorf("rule %s at %d has rank %d", st.Def.Name, i, st.rank)
		}
		if has(sess.trig, i) != m.triggered {
			return fmt.Errorf("rule %s: triggered = %v, in the triggered set: %v", st.Def.Name, m.triggered, has(sess.trig, i))
		}
		if m.pending && !m.triggered && !has(sess.queue, i) {
			return fmt.Errorf("rule %s is pending but not on the worklist", st.Def.Name)
		}
	}
	min, holders := walkHorizon(sess)
	if len(sess.marks) > 0 && (sess.wmMin != min || sess.wmHolders != holders) {
		return fmt.Errorf("watermark %d held by %d, marks say %d held by %d", sess.wmMin, sess.wmHolders, min, holders)
	}
	return sess.checkProbeIndex()
}

// checkedTable is an arrival table checkProbeIndex held to its
// definition, with the rule set it was built for.
type checkedTable struct {
	rules                         []*State
	off, probeEnd, ranks, matches []int32
}

// tablesChecked records, per Support, the arrival table checkProbeIndex
// last compared with its definition, which it compares again only once
// the table or the rule set differ.
var tablesChecked = map[*Support]checkedTable{}

// checkProbeIndex holds what the arrival walk reads to its definition:
// between walks no rank is marked, and the arrival table, once built,
// files under each type id first, in queue order, the non-monotone rules
// whose V(E) gives that type a Δ+ or Δ± variation, and then, in queue
// order, the monotone ones; the match-all ranks are the non-monotone
// rules' first as well, and probeAll is their prefix.
func (sess *Session) checkProbeIndex() error {
	if p := &sess.probe; !p.walking {
		for i, lo := range p.lo {
			if lo != notProbing {
				return fmt.Errorf("rank %d is still marked for the walk at %d", i, lo)
			}
		}
	}
	tb := &sess.sup.listen
	seen := checkedTable{sess.sup.ordered, tb.off, tb.probeEnd, tb.ranks, sess.sup.matchAll}
	if last, ok := tablesChecked[sess.sup]; ok && slices.Equal(last.rules, seen.rules) &&
		slices.Equal(last.off, seen.off) && slices.Equal(last.probeEnd, seen.probeEnd) &&
		slices.Equal(last.ranks, seen.ranks) && slices.Equal(last.matches, seen.matches) {
		return nil
	}
	for _, ids := range []*[]int32{&seen.off, &seen.probeEnd, &seen.ranks, &seen.matches} {
		*ids = slices.Clone(*ids)
	}
	seen.rules = slices.Clone(seen.rules)
	tablesChecked[sess.sup] = seen
	n := len(tb.off) - 1
	probes, rest := make([][]int32, n), make([][]int32, n)
	var all, allMonotone []int32
	for _, monotone := range []bool{false, true} {
		for i, st := range sess.sup.ordered {
			if st.monotone != monotone {
				continue
			}
			if st.Filter.MatchAll {
				if monotone {
					allMonotone = append(allMonotone, int32(i))
				} else {
					all = append(all, int32(i))
				}
				continue
			}
			for _, ty := range st.Filter.RelevantTypes() {
				tid := sess.sup.reg.Intern(ty)
				if int(tid) >= n {
					return fmt.Errorf("rule %s listens to %v, which the table has no list for", st.Def.Name, ty)
				}
				if monotone {
					rest[tid] = append(rest[tid], int32(i))
				} else {
					probes[tid] = append(probes[tid], int32(i))
				}
			}
		}
	}
	if !slices.Equal(sess.sup.probeAll, all) || !slices.Equal(sess.sup.matchAll, append(all, allMonotone...)) {
		return fmt.Errorf("match-all ranks %v probing %v, the rules say %v then %v", sess.sup.matchAll, sess.sup.probeAll, all, allMonotone)
	}
	for tid := int32(0); int(tid) < n; tid++ {
		got := tb.probes(tid)
		if !slices.Equal(got, probes[tid]) {
			return fmt.Errorf("type id %d probes ranks %v, the rules say %v", tid, got, probes[tid])
		}
		if all := tb.of(tid); !slices.Equal(all[len(got):], rest[tid]) {
			return fmt.Errorf("type id %d files monotone ranks %v, the rules say %v", tid, all[len(got):], rest[tid])
		}
	}
	return nil
}

func verifyIndex(t *testing.T, sess *Session) {
	t.Helper()
	if err := sess.checkIndex(); err != nil {
		t.Fatalf("index: %v", err)
	}
}

// The oracle: the block boundary as a walk of every defined rule, the
// way it was computed before the index existed. It reads nothing but the
// marks and the queue order.

// walkBatch is the batch a check would examine, with the examined and
// skipped counts the walk accumulates.
func walkBatch(l *Session) (batch []string, examined, skipped int64) {
	for i, st := range l.sup.ordered {
		if l.marks[i].triggered {
			continue
		}
		examined++
		if !l.marks[i].pending {
			skipped++
			continue
		}
		batch = append(batch, st.Def.Name)
	}
	return batch, examined, skipped
}

func walkTriggered(l *Session, filter func(Def) bool) []string {
	var out []string
	for i, st := range l.sup.ordered {
		if l.marks[i].triggered && (filter == nil || filter(st.Def)) {
			out = append(out, st.Def.Name)
		}
	}
	return out
}

func walkHorizon(l *Session) (min clock.Time, holders int) {
	for i, m := range l.marks {
		switch {
		case i == 0 || m.lastConsideration < min:
			min, holders = m.lastConsideration, 1
		case m.lastConsideration == min:
			holders++
		}
	}
	return min, holders
}

func walkWatermark(l *Session) clock.Time {
	if l.sup.preserving > 0 || len(l.marks) == 0 {
		return l.txnStart
	}
	min, _ := walkHorizon(l)
	return min
}

// walked drives one Session and compares every answer with the
// oracle's, computed from the same marks.
type walked struct {
	t *testing.T
	l *Session
}

var immediateOnly = func(d Def) bool { return d.Coupling == Immediate }

// verify compares every read the engine makes at a block boundary.
func (w walked) verify(step string) {
	w.t.Helper()
	for _, filter := range []func(Def) bool{nil, immediateOnly} {
		want := walkTriggered(w.l, filter)
		if got := w.l.Triggered(filter); !slices.Equal(got, want) {
			w.t.Fatalf("%s: Triggered = %v, walk says %v", step, got, want)
		}
		name, ok := w.l.Pick(filter)
		if ok != (len(want) > 0) || (ok && name != want[0]) {
			w.t.Fatalf("%s: Pick = %q %v, walk says %v", step, name, ok, want)
		}
	}
	if got, want := w.l.Watermark(), walkWatermark(w.l); got != want {
		w.t.Fatalf("%s: Watermark = %d, walk says %d", step, got, want)
	}
	verifyIndex(w.t, w.l)
}

// check runs one triggering determination; a budget fault is reported,
// not raised.
func (w walked) check(now clock.Time) error {
	w.t.Helper()
	batch, examined, skipped := walkBatch(w.l)
	before := w.l.Stats()
	var fired []string
	if err := calculus.CatchBudget(func() { fired = w.l.CheckTriggered(now) }); err != nil {
		w.verify("after a budget fault")
		return err
	}
	after := w.l.Stats()
	if got := after.RulesExamined - before.RulesExamined; got != examined {
		w.t.Fatalf("check examined %d rules, walk says %d", got, examined)
	}
	if got := after.RulesSkipped - before.RulesSkipped; got != skipped {
		w.t.Fatalf("check skipped %d rules, walk says %d", got, skipped)
	}
	got := make([]string, len(w.l.checkBuf))
	for i, r := range w.l.checkBuf {
		got[i] = w.l.sup.ordered[r].Def.Name
	}
	if !slices.Equal(got, batch) {
		w.t.Fatalf("check evaluated %v, walk says %v", got, batch)
	}
	var want []string
	for _, name := range batch {
		if w.l.marks[w.l.sup.rules[name].rank].triggered {
			want = append(want, name)
		}
	}
	if !slices.Equal(fired, want) {
		w.t.Fatalf("check fired %v, the batch's triggered rules are %v", fired, want)
	}
	w.verify("after check")
	return nil
}

func scriptDefs(r *rand.Rand, n int, prefix string) []Def {
	gen := calculus.GenOptions{Types: calculus.DefaultVocabulary(), MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	defs := make([]Def, n)
	for i := range defs {
		defs[i] = Def{
			Name:     fmt.Sprintf("%s%03d", prefix, i),
			Event:    calculus.GenExpr(r, gen),
			Priority: r.Intn(5),
			Coupling: Coupling(r.Intn(2)),
		}
	}
	return defs
}

// scriptArrivals logs one to four random occurrences, one block's worth.
func scriptArrivals(t *testing.T, r *rand.Rand, b *event.Base, c *clock.Clock) []event.Occurrence {
	t.Helper()
	vocab := calculus.DefaultVocabulary()
	var occs []event.Occurrence
	for i := 1 + r.Intn(4); i > 0; i-- {
		occ, err := b.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(3)), c.Tick())
		if err != nil {
			t.Fatal(err)
		}
		occs = append(occs, occ)
	}
	return occs
}

// A random script of everything that touches marks — arrivals, checks,
// picks and considerations, considerations of rules that are not
// triggered (of all of them in turn, and at stale instants), Define and
// Drop between two Sessions, a checkpoint round trip of the marks,
// replayed firings, a new transaction, a check cut short by its budget —
// with every answer compared to the full walk after every step. DDL runs
// as the engine runs it: the Session is released, the rule set changes,
// and a new Session opens over the same base.
func TestIndexMatchesFullWalk(t *testing.T) {
	for _, seed := range []int64{1996, 1997} {
		r := rand.New(rand.NewSource(seed))
		s := supportWith(t, scriptDefs(r, 48, "r"))
		b := s.testBase(0)
		c := clock.New()
		start := c.Now()
		w := walked{t: t, l: s.NewSession(b, start)}
		w.verify("after load")
		// restart releases the Session, runs ddl and opens the next one at
		// at.
		restart := func(at clock.Time, ddl func()) {
			w.l.Release()
			ddl()
			start = at
			w.l = s.NewSession(b, start)
		}
		defined := 48
		pickAny := func() (string, bool) {
			names := s.Rules()
			if len(names) == 0 {
				return "", false
			}
			return names[r.Intn(len(names))], true
		}
		for step := 0; step < 600; step++ {
			sess := w.l
			switch op := r.Intn(20); {
			case op < 6:
				sess.NotifyArrivals(tidsOf(b, scriptArrivals(t, r, b, c)))
				w.verify("after arrivals")
			case op < 10:
				if err := w.check(c.Now()); err != nil {
					t.Fatal(err)
				}
			case op < 14:
				if name, ok := sess.Pick(nil); ok {
					if _, err := sess.Consider(name, c.Tick()); err != nil {
						t.Fatal(err)
					}
					w.verify("after considering " + name)
				}
			case op == 14:
				// Unprompted considerations: of one rule, now and then at
				// an instant no clock would hand out, or of every rule in
				// turn, which moves the watermark off its last holder.
				names := s.Rules()
				if name, ok := pickAny(); ok && r.Intn(3) > 0 {
					names = []string{name}
				}
				at := c.Tick()
				if r.Intn(4) == 0 {
					at = start
				}
				for _, name := range names {
					if _, err := sess.Consider(name, at); err != nil {
						t.Fatal(err)
					}
					w.verify("after considering " + name + " unprompted")
					if at != start {
						at = c.Tick()
					}
				}
			case op == 15:
				d := scriptDefs(r, 1, fmt.Sprintf("late%d-", defined))[0]
				defined++
				if r.Intn(4) == 0 {
					d.Consumption = Preserving
				}
				restart(c.Tick(), func() {
					if err := s.Define(d); err != nil {
						t.Fatal(err)
					}
				})
				w.verify("after Define")
			case op == 16:
				if name, ok := pickAny(); ok {
					restart(c.Tick(), func() {
						if err := s.Drop(name); err != nil {
							t.Fatal(err)
						}
					})
					w.verify("after Drop of " + name)
				}
			case op == 17:
				ms := sess.Marks()
				restart(start, func() {})
				w.verify("after a new Session at the same start")
				if err := w.l.RestoreMarks(ms); err != nil {
					t.Fatal(err)
				}
				w.verify("after RestoreMarks")
				if got := w.l.Marks(); !slices.Equal(got, ms) {
					t.Fatalf("marks after the round trip %v, want %v", got, ms)
				}
			case op == 18:
				if name, ok := pickAny(); ok {
					if err := sess.RestoreTriggered(name, c.Now()); err != nil {
						t.Fatal(err)
					}
					w.verify("after RestoreTriggered of " + name)
				}
			default:
				if r.Intn(2) == 0 {
					restart(c.Tick(), func() {})
					w.verify("after a new transaction")
					break
				}
				sess.SetBudget(calculus.NewBudget(int64(1+r.Intn(6)), time.Time{}))
				err := w.check(c.Now()) // may or may not run out
				sess.SetBudget(nil)
				if err != nil {
					// The killed check left some rules decided and some
					// not; the next one picks up exactly the rest. If the
					// fault cut an arrival walk short, the next walk clears
					// its marks first (TestWalkAfterCutWalkStartsClean).
					if err := w.check(c.Now()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		w.l.Release()
	}
}

// The same script over a Session whose rule set stays, across three
// transactions. A checkpoint round trip releases the session and restores
// its marks into the recycled one a NewSession at the same start hands
// back.
func TestIndexMatchesFullWalkInSession(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := NewSupport(nil, Options{})
	for _, d := range scriptDefs(r, 70, "r") {
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		b := s.testBase(0)
		c := clock.New()
		sess := s.NewSession(b, c.Now())
		w := walked{t: t, l: sess}
		w.verify("after NewSession")
		for step := 0; step < 300; step++ {
			switch op := r.Intn(11); {
			case op < 4:
				sess.NotifyArrivals(tidsOf(b, scriptArrivals(t, r, b, c)))
				w.verify("after arrivals")
			case op < 6:
				if err := w.check(c.Now()); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				if name, ok := sess.Pick(nil); ok {
					if _, err := sess.Consider(name, c.Tick()); err != nil {
						t.Fatal(err)
					}
					w.verify("after considering " + name)
				}
			case op == 9:
				ms, start := sess.Marks(), sess.Start()
				sess.Release()
				if sess = s.NewSession(b, start); sess != w.l {
					t.Fatal("NewSession did not recycle the released session")
				}
				w.verify("after a recycled NewSession")
				if err := sess.RestoreMarks(ms); err != nil {
					t.Fatal(err)
				}
				w.verify("after RestoreMarks")
				if got := sess.Marks(); !slices.Equal(got, ms) {
					t.Fatalf("marks after the round trip %v, want %v", got, ms)
				}
			default:
				name := s.Rules()[r.Intn(70)]
				if err := sess.RestoreTriggered(name, c.Now()); err != nil {
					t.Fatal(err)
				}
				w.verify("after RestoreTriggered of " + name)
			}
		}
		sess.Release()
	}
}

// hide replaces every registry State in the queue but those of keep with nil, so
// that a block boundary visiting any other rule crashes; the returned
// function puts them back.
func hide(sess *Session, keep ...string) (restore func()) {
	rules := sess.sup.ordered
	saved := slices.Clone(rules)
	for i, st := range rules {
		if !slices.Contains(keep, st.Def.Name) {
			rules[i] = nil
		}
	}
	return func() { copy(rules, saved) }
}

// The cost of a block boundary follows the rules an arrival touched, not
// the rules defined: one arrival script reaching two rules is run under
// 10 and under 10 000 defined rules with every other State hidden, and
// the empty block that follows each consideration runs with all of them
// hidden — and allocates nothing.
func TestBlockBoundaryIndependentOfRuleCount(t *testing.T) {
	for _, n := range []int{10, 10000} {
		defs := make([]Def, n)
		for i := range defs {
			// Two rules listen to create(stock), the rest to a type that
			// never arrives.
			defs[i] = Def{Name: fmt.Sprintf("r%05d", i), Priority: i % 7, Event: calculus.P(modShowQty)}
			if i == 3 || i == n-2 {
				defs[i].Event = calculus.P(createStock)
			}
		}
		s, b, c := newSupport(t, defs...)
		touched := []string{"r00003", fmt.Sprintf("r%05d", n-2)}
		s.CheckTriggered(c.Now()) // settles the index

		restore := hide(s, touched...)
		log(t, s, b, c, createStock, 1)
		if fired := s.CheckTriggered(c.Now()); len(fired) != 2 {
			t.Fatalf("%d rules: fired %v", n, fired)
		}
		for range touched {
			name, ok := s.Pick(nil)
			if !ok {
				t.Fatalf("%d rules: nothing to pick", n)
			}
			if _, err := s.Consider(name, c.Tick()); err != nil {
				t.Fatal(err)
			}
			s.Watermark()
		}
		restore()

		restore = hide(s)
		allocs := testing.AllocsPerRun(50, func() {
			if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
				t.Fatalf("%d rules: empty block fired %v", n, fired)
			}
			if name, ok := s.Pick(nil); ok {
				t.Fatalf("%d rules: empty block picked %s", n, name)
			}
			if wm := s.Watermark(); wm != s.Start() {
				t.Fatalf("%d rules: watermark %d", n, wm)
			}
		})
		restore()
		if allocs != 0 {
			t.Errorf("%d rules: an empty block allocates %v times", n, allocs)
		}
		verifyIndex(t, s)
		if st := s.Stats(); st.RulesExamined != st.RulesSkipped+2 {
			// Every check examined all n rules (none was triggered when
			// one started); only the arrival's evaluated any.
			t.Errorf("%d rules: examined %d, skipped %d", n, st.RulesExamined, st.RulesSkipped)
		}
	}
}

// Drop between two Sessions shifts the ranks of the rules after the
// dropped one: the next Session's marks, index and arrival table cover
// the surviving rules at their new ranks, so neither a rule that was
// triggered nor one that was pending before its Drop is evaluated,
// picked or counted, and the neighbours' arrivals reach the neighbours.
func TestDropLeavesIndex(t *testing.T) {
	s, b, c := newSupport(t,
		Def{Name: "a", Priority: 1, Event: calculus.P(createStock)},
		Def{Name: "b", Priority: 2, Event: calculus.P(createStock)},
		Def{Name: "c", Priority: 3, Event: calculus.P(modStockQty)},
		Def{Name: "d", Priority: 4, Event: calculus.P(modStockQty)})
	log(t, s, b, c, createStock, 1)
	if fired := s.CheckTriggered(c.Now()); !slices.Equal(fired, []string{"a", "b"}) {
		t.Fatalf("fired %v", fired)
	}
	log(t, s, b, c, modStockQty, 1) // c and d are pending now
	w := walked{t: t, l: s}
	w.verify("before the drops")

	sup := s.sup
	s.Release()
	if err := sup.Drop("a"); err != nil { // triggered
		t.Fatal(err)
	}
	if err := sup.Drop("c"); err != nil { // pending
		t.Fatal(err)
	}
	w.l = sup.NewSession(b, c.Tick())
	defer w.l.Release()
	w.verify("after the drops")
	log(t, w.l, b, c, createStock, 2)
	log(t, w.l, b, c, modStockQty, 2)
	before := w.l.Stats()
	if err := w.check(c.Now()); err != nil {
		t.Fatal(err)
	}
	after := w.l.Stats()
	if got := after.RulesExamined - before.RulesExamined; got != 2 {
		t.Errorf("check examined %d rules, want 2 (b and d; a and c are gone)", got)
	}
	if got := w.l.Triggered(nil); !slices.Equal(got, []string{"b", "d"}) {
		t.Errorf("Triggered = %v, want [b d]", got)
	}
	if name, ok := w.l.Pick(nil); !ok || name != "b" {
		t.Fatalf("Pick = %q %v, want b", name, ok)
	}
	if live := sup.Plan().Live(); live != 2 {
		t.Errorf("plan holds %d nodes, want the two prims still in use", live)
	}
}

// An arrival walk visits the rules an arrival can activate, not the
// rules pending: the same arrivals cost the same visits under 10 and
// under 10 000 pending, undecided rules that they cannot activate. Among
// those is a rule whose V(E) gives the arrivals' type only the sign Δ−:
// such an arrival can only lower its ts, so the walk never probes it
// there, though its V(E) mentions the type.
func TestProbeVisitsFollowRelevantTypes(t *testing.T) {
	var visits []int64
	for _, n := range []int{10, 10000} {
		// A ∧ ¬A is inactive at every instant, A a Δ± type of it: every rule
		// stays undecided through the whole walk. Two rules name
		// create(stock), the rest only modify(show.quantity), which never
		// arrives; one more negates create(stock) and nothing else.
		defs := make([]Def, n, n+1)
		for i := range defs {
			ty := modShowQty
			if i == 3 || i == n-2 {
				ty = createStock
			}
			e := calculus.Conj(calculus.P(ty), calculus.Neg(calculus.P(ty)))
			defs[i] = Def{Name: fmt.Sprintf("r%05d", i), Priority: i % 7, Event: e}
		}
		neg := calculus.Conj(calculus.P(modShowQty), calculus.Neg(calculus.P(createStock)))
		s, b, c := newSupport(t, append(defs, Def{Name: "neg", Event: neg})...)
		for i := 0; i < 20; i++ {
			log(t, s, b, c, createStock, types.OID(1+i%3))
		}
		// Every rule pending, as a recovered Session's rules are: a
		// checkpoint's marks restored re-arm every rule.
		if err := s.RestoreMarks(s.Marks()); err != nil {
			t.Fatal(err)
		}
		if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
			t.Fatalf("%d rules: fired %v", n, fired)
		}
		if st := s.Stats(); st.RulesExamined-st.RulesSkipped != int64(n+1) {
			t.Fatalf("%d rules: the batch held %d rules, want every one pending", n, st.RulesExamined-st.RulesSkipped)
		}
		visits = append(visits, s.visits)
	}
	if visits[0] != 40 || visits[1] != visits[0] {
		t.Errorf("20 arrivals two rules can activate visited %v rules under 10 and 10 000 rules, want 40 each", visits)
	}
}

// Loading rules derives nothing: 1 000 Defines leave the registry's
// filings underived and its arrival table unbuilt, and the first
// NewSession builds it, over the rule set as it then stands; the
// Session's walk scratch waits for its first walk. A NewSession over one
// rule allocates at most ten objects.
func TestDefineDerivesNothing(t *testing.T) {
	s := NewSupport(nil, Options{})
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	for i := 0; i < 1000; i++ {
		if err := s.Define(Def{Name: fmt.Sprintf("r%04d", i), Event: e}); err != nil {
			t.Fatal(err)
		}
		if s.derived || s.listen.off != nil {
			t.Fatalf("Define %d derived the filings or built the table", i)
		}
	}
	b, c := s.testBase(0), clock.New()
	sess := s.NewSession(b, c.Now())
	defer sess.Release()
	tid := b.Registry().Intern(createStock)
	if !s.derived || len(s.listen.probes(tid)) != 1000 || sess.probe.lo != nil {
		t.Fatalf("the first NewSession left the table probing %d ranks, the walk's scratch over %d",
			len(s.listen.probes(tid)), len(sess.probe.lo))
	}
	log(t, sess, b, c, createStock, 1)
	sess.CheckTriggered(c.Now())
	if len(sess.probe.lo) != 1000 {
		t.Fatalf("the first walk left its scratch over %d ranks", len(sess.probe.lo))
	}
	verifyIndex(t, sess)

	one := NewSupport(nil, Options{})
	if err := one.Define(Def{Name: "cap", Event: calculus.P(modStockQty)}); err != nil {
		t.Fatal(err)
	}
	const most = 10
	if n := testing.AllocsPerRun(100, func() { one.NewSession(b, c.Now()).Release() }); n > most {
		t.Errorf("NewSession over one rule allocates %v objects, want at most %d", n, most)
	}
}

// A walk a budget fault cut short leaves its marks in the walk's
// scratch; the next walk starts clean. The cut walk marks x; the next
// transaction's Session, the same one recycled, leaves x neither pending
// nor probed, and the next walk, which only y's arrival starts, must
// leave no mark of x behind.
func TestWalkAfterCutWalkStartsClean(t *testing.T) {
	s, b, c := newSupport(t,
		Def{Name: "x", Event: calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modShowQty)))},
		Def{Name: "y", Event: calculus.Conj(calculus.P(modStockQty), calculus.Neg(calculus.P(modShowQty)))})
	log(t, s, b, c, createStock, 1)
	s.SetBudget(calculus.NewBudget(2, time.Time{}))
	if err := calculus.CatchBudget(func() { s.CheckTriggered(c.Now()) }); err == nil {
		t.Fatal("a budget of two units decided x")
	}
	s.SetBudget(nil)
	if !s.probe.walking || s.probe.lo[0] == notProbing {
		t.Fatal("the fault did not cut the walk short with x marked")
	}
	verifyIndex(t, s)

	s.Release()
	if next := s.sup.NewSession(b, c.Tick()); next != s {
		t.Fatal("NewSession did not recycle the released session")
	}
	at := log(t, s, b, c, modStockQty, 1).Timestamp
	log(t, s, b, c, modShowQty, 1) // y turns inactive again before the check
	if fired := s.CheckTriggered(c.Now()); !slices.Equal(fired, []string{"y"}) {
		t.Fatalf("fired %v, want y", fired)
	}
	if m, _ := s.Mark("y"); m.TriggeredAt != at {
		t.Fatalf("y triggered at %d, want its arrival at %d", m.TriggeredAt, at)
	}
	verifyIndex(t, s)
}
