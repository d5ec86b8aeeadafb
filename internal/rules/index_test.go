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
func (l *line) checkIndex() error {
	if l.stale {
		return nil
	}
	if len(l.marks) != len(l.sup.ordered) {
		return fmt.Errorf("%d marks for %d rules", len(l.marks), len(l.sup.ordered))
	}
	words := (len(l.marks) + 63) >> 6
	if len(l.queue) != words || len(l.trig) != words {
		return fmt.Errorf("sets of %d and %d words for %d rules", len(l.queue), len(l.trig), len(l.marks))
	}
	has := func(b rankSet, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
	ntrig, queued := 0, 0
	for _, w := range l.trig {
		ntrig += bits.OnesCount64(w)
	}
	for _, w := range l.queue {
		queued += bits.OnesCount64(w)
	}
	if ntrig != l.ntrig {
		return fmt.Errorf("ntrig = %d, set holds %d", l.ntrig, ntrig)
	}
	if queued > 0 && !l.queued {
		return fmt.Errorf("worklist holds %d rules but is marked empty", queued)
	}
	for i, st := range l.sup.ordered {
		m := l.marks[i]
		if int(st.rank) != i {
			return fmt.Errorf("rule %s at %d has rank %d", st.Def.Name, i, st.rank)
		}
		if has(l.trig, i) != m.triggered {
			return fmt.Errorf("rule %s: triggered = %v, in the triggered set: %v", st.Def.Name, m.triggered, has(l.trig, i))
		}
		if m.pending && !m.triggered && !has(l.queue, i) {
			return fmt.Errorf("rule %s is pending but not on the worklist", st.Def.Name)
		}
	}
	min, holders := walkHorizon(l)
	if len(l.marks) > 0 && (l.wmMin != min || l.wmHolders != holders) {
		return fmt.Errorf("watermark %d held by %d, marks say %d held by %d", l.wmMin, l.wmHolders, min, holders)
	}
	return l.checkProbeIndex()
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
func (l *line) checkProbeIndex() error {
	if p := &l.probe; !p.walking {
		for i, lo := range p.lo {
			if lo != notProbing {
				return fmt.Errorf("rank %d is still marked for the walk at %d", i, lo)
			}
		}
	}
	tb := &l.sup.listen
	if !l.sup.derived {
		return nil
	}
	seen := checkedTable{l.sup.ordered, tb.off, tb.probeEnd, tb.ranks, l.sup.matchAll}
	if last, ok := tablesChecked[l.sup]; ok && slices.Equal(last.rules, seen.rules) &&
		slices.Equal(last.off, seen.off) && slices.Equal(last.probeEnd, seen.probeEnd) &&
		slices.Equal(last.ranks, seen.ranks) && slices.Equal(last.matches, seen.matches) {
		return nil
	}
	for _, ids := range []*[]int32{&seen.off, &seen.probeEnd, &seen.ranks, &seen.matches} {
		*ids = slices.Clone(*ids)
	}
	seen.rules = slices.Clone(seen.rules)
	tablesChecked[l.sup] = seen
	n := len(tb.off) - 1
	probes, rest := make([][]int32, n), make([][]int32, n)
	var all, allMonotone []int32
	for _, monotone := range []bool{false, true} {
		for i, st := range l.sup.ordered {
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
				tid := l.sup.reg.Intern(ty)
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
	if !slices.Equal(l.sup.probeAll, all) || !slices.Equal(l.sup.matchAll, append(all, allMonotone...)) {
		return fmt.Errorf("match-all ranks %v probing %v, the rules say %v then %v", l.sup.matchAll, l.sup.probeAll, all, allMonotone)
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

func verifyIndex(t *testing.T, l *line) {
	t.Helper()
	if err := l.checkIndex(); err != nil {
		t.Fatalf("index: %v", err)
	}
}

// The oracle: the block boundary as a walk of every defined rule, the
// way it was computed before the index existed. It reads nothing but the
// marks and the queue order.

// walkBatch is the batch a check would examine, with the examined and
// skipped counts the walk accumulates.
func walkBatch(l *line) (batch []string, examined, skipped int64) {
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

func walkTriggered(l *line, filter func(Def) bool) []string {
	var out []string
	for i, st := range l.sup.ordered {
		if l.marks[i].triggered && (filter == nil || filter(st.Def)) {
			out = append(out, st.Def.Name)
		}
	}
	return out
}

func walkHorizon(l *line) (min clock.Time, holders int) {
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

func walkWatermark(l *line) clock.Time {
	if l.sup.preserving > 0 || len(l.marks) == 0 {
		return l.txnStart
	}
	min, _ := walkHorizon(l)
	return min
}

// walked drives one line (the Support's direct line or a Session's) and
// compares every answer with the oracle's, computed from the same
// marks.
type walked struct {
	t *testing.T
	v lineView
	l *line
}

var immediateOnly = func(d Def) bool { return d.Coupling == Immediate }

// verify compares every read the engine makes at a block boundary.
func (w walked) verify(step string) {
	w.t.Helper()
	for _, filter := range []func(Def) bool{nil, immediateOnly} {
		want := walkTriggered(w.l, filter)
		if got := w.v.Triggered(filter); !slices.Equal(got, want) {
			w.t.Fatalf("%s: Triggered = %v, walk says %v", step, got, want)
		}
		name, ok := w.v.Pick(filter)
		if ok != (len(want) > 0) || (ok && name != want[0]) {
			w.t.Fatalf("%s: Pick = %q %v, walk says %v", step, name, ok, want)
		}
	}
	if got, want := w.v.Watermark(), walkWatermark(w.l); got != want {
		w.t.Fatalf("%s: Watermark = %d, walk says %d", step, got, want)
	}
	verifyIndex(w.t, w.l)
}

// check runs one triggering determination; a budget fault is reported,
// not raised.
func (w walked) check(now clock.Time) error {
	w.t.Helper()
	batch, examined, skipped := walkBatch(w.l)
	before := w.v.Stats()
	var fired []string
	if err := calculus.CatchBudget(func() { fired = w.v.CheckTriggered(now) }); err != nil {
		w.verify("after a budget fault")
		return err
	}
	after := w.v.Stats()
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
// triggered (of all of them in turn, and at stale instants),
// mid-transaction Define and Drop, a checkpoint round trip of the marks,
// replayed firings, a new transaction, a check cut short by its budget —
// with every answer compared to the full walk after every step. The
// script runs on the direct line, the one line whose rule set may change
// mid-transaction; the round trip and the replayed firings call the line
// methods a Session's RestoreMarks and RestoreTriggered wrap.
func TestIndexMatchesFullWalk(t *testing.T) {
	for _, seed := range []int64{1996, 1997} {
		r := rand.New(rand.NewSource(seed))
		b := event.NewBase()
		c := clock.New()
		s := NewSupport(b, Options{})
		start := c.Now()
		s.BeginTransaction(start)
		w := walked{t: t, v: s, l: &s.line}
		for _, d := range scriptDefs(r, 48, "r") {
			if err := s.Define(d); err != nil {
				t.Fatal(err)
			}
		}
		w.verify("after load")
		defined := 48
		pickAny := func() (string, bool) {
			names := s.Rules()
			if len(names) == 0 {
				return "", false
			}
			return names[r.Intn(len(names))], true
		}
		for step := 0; step < 600; step++ {
			switch op := r.Intn(20); {
			case op < 6:
				s.NotifyArrivals(scriptArrivals(t, r, b, c))
				w.verify("after arrivals")
			case op < 10:
				if err := w.check(c.Now()); err != nil {
					t.Fatal(err)
				}
			case op < 14:
				if name, ok := s.Pick(nil); ok {
					if _, err := s.Consider(name, c.Tick()); err != nil {
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
					if _, err := s.Consider(name, at); err != nil {
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
				if err := s.Define(d); err != nil {
					t.Fatal(err)
				}
				w.verify("after Define")
			case op == 16:
				if name, ok := pickAny(); ok {
					if err := s.Drop(name); err != nil {
						t.Fatal(err)
					}
					w.verify("after Drop of " + name)
				}
			case op == 17:
				ms := s.line.exportMarks()
				s.BeginTransaction(start)
				w.verify("after BeginTransaction")
				if err := s.line.restoreMarks(ms); err != nil {
					t.Fatal(err)
				}
				w.verify("after restoreMarks")
				if got := s.line.exportMarks(); !slices.Equal(got, ms) {
					t.Fatalf("marks after the round trip %v, want %v", got, ms)
				}
			case op == 18:
				if name, ok := pickAny(); ok {
					if err := s.line.restoreTriggered(name, c.Now()); err != nil {
						t.Fatal(err)
					}
					w.verify("after RestoreTriggered of " + name)
				}
			default:
				if r.Intn(2) == 0 {
					start = c.Tick()
					s.BeginTransaction(start)
					w.verify("after a new transaction")
					break
				}
				s.line.budget = calculus.NewBudget(int64(1+r.Intn(6)), time.Time{})
				err := w.check(c.Now()) // may or may not run out
				s.line.budget = nil
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
	}
}

// The same script over a Session's line, beside the Support's direct
// line serving a different history: the two indexes share nothing. A
// checkpoint round trip releases the session and restores its marks into
// the recycled one a NewSession at the same start hands back.
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
		w := walked{t: t, v: sess, l: &sess.line}
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
				if sess = s.NewSession(b, start); &sess.line != w.l {
					t.Fatal("NewSession did not recycle the released session")
				}
				w.v = sess
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
	verifyIndex(t, &s.line)
}

// hide replaces every registry State in the queue but those of keep with nil, so
// that a block boundary visiting any other rule crashes; the returned
// function puts them back.
func hide(l *line, keep ...string) (restore func()) {
	rules := l.sup.ordered
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
		b := event.NewBase()
		c := clock.New()
		s := NewSupport(b, Options{})
		s.BeginTransaction(c.Now())
		for i := 0; i < n; i++ {
			// Two rules listen to create(stock), the rest to a type that
			// never arrives.
			d := Def{Name: fmt.Sprintf("r%05d", i), Priority: i % 7, Event: calculus.P(modShowQty)}
			if i == 3 || i == n-2 {
				d.Event = calculus.P(createStock)
			}
			if err := s.Define(d); err != nil {
				t.Fatal(err)
			}
		}
		touched := []string{"r00003", fmt.Sprintf("r%05d", n-2)}
		s.CheckTriggered(c.Now()) // settles the index and every rule's initial pending flag

		restore := hide(&s.line, touched...)
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

		restore = hide(&s.line)
		allocs := testing.AllocsPerRun(50, func() {
			if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
				t.Fatalf("%d rules: empty block fired %v", n, fired)
			}
			if name, ok := s.Pick(nil); ok {
				t.Fatalf("%d rules: empty block picked %s", n, name)
			}
			if wm := s.Watermark(); wm != s.TxnStart() {
				t.Fatalf("%d rules: watermark %d", n, wm)
			}
		})
		restore()
		if allocs != 0 {
			t.Errorf("%d rules: an empty block allocates %v times", n, allocs)
		}
		verifyIndex(t, &s.line)
		if st := s.Stats(); st.RulesExamined != st.RulesSkipped+int64(n)+2 {
			// Every check examined all n rules (none was triggered when
			// one started); only the load check and the arrival's
			// evaluated any.
			t.Errorf("%d rules: examined %d, skipped %d", n, st.RulesExamined, st.RulesSkipped)
		}
	}
}

// A dropped rule leaves the index with its State: neither a pending nor
// a triggered rule is evaluated, picked or counted after its Drop, and
// the ranks it shifted keep pointing at the right neighbours.
func TestDropLeavesIndex(t *testing.T) {
	s, b, c := newSupport(t)
	for _, d := range []Def{
		{Name: "a", Priority: 1, Event: calculus.P(createStock)},
		{Name: "b", Priority: 2, Event: calculus.P(createStock)},
		{Name: "c", Priority: 3, Event: calculus.P(modStockQty)},
		{Name: "d", Priority: 4, Event: calculus.P(modStockQty)},
	} {
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	log(t, s, b, c, createStock, 1)
	if fired := s.CheckTriggered(c.Now()); !slices.Equal(fired, []string{"a", "b"}) {
		t.Fatalf("fired %v", fired)
	}
	log(t, s, b, c, modStockQty, 1) // c and d are pending now
	w := walked{t: t, v: s, l: &s.line}
	w.verify("before the drops")

	if err := s.Drop("a"); err != nil { // triggered
		t.Fatal(err)
	}
	if err := s.Drop("c"); err != nil { // pending
		t.Fatal(err)
	}
	w.verify("after the drops")
	if name, ok := s.Pick(nil); !ok || name != "b" {
		t.Fatalf("Pick = %q %v, want b", name, ok)
	}
	before := s.Stats()
	if err := w.check(c.Now()); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if got := after.RulesExamined - before.RulesExamined; got != 1 {
		t.Errorf("check examined %d rules, want 1 (d; b is triggered, a and c are gone)", got)
	}
	if got := s.Triggered(nil); !slices.Equal(got, []string{"b", "d"}) {
		t.Errorf("Triggered = %v, want [b d]", got)
	}
	if live := s.Plan().Live(); live != 2 {
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
		s, b, c := newSupport(t)
		// A ∧ ¬A is inactive at every instant, A a Δ± type of it: every rule
		// stays undecided through the whole walk. Two rules name
		// create(stock), the rest only modify(show.quantity), which never
		// arrives; one more negates create(stock) and nothing else.
		for i := 0; i < n; i++ {
			ty := modShowQty
			if i == 3 || i == n-2 {
				ty = createStock
			}
			e := calculus.Conj(calculus.P(ty), calculus.Neg(calculus.P(ty)))
			if err := s.Define(Def{Name: fmt.Sprintf("r%05d", i), Priority: i % 7, Event: e}); err != nil {
				t.Fatal(err)
			}
		}
		neg := calculus.Conj(calculus.P(modShowQty), calculus.Neg(calculus.P(createStock)))
		if err := s.Define(Def{Name: "neg", Event: neg}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			log(t, s, b, c, createStock, types.OID(1+i%3))
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
// filings underived and the direct line's arrival table and walk scratch
// unbuilt, and the first check builds both, over the rule set as it then
// stands. A NewSession over one rule allocates at most ten objects.
func TestDefineDerivesNothing(t *testing.T) {
	s, b, c := newSupport(t)
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	for i := 0; i < 1000; i++ {
		if err := s.Define(Def{Name: fmt.Sprintf("r%04d", i), Event: e}); err != nil {
			t.Fatal(err)
		}
		if s.derived || s.listen.off != nil || s.probe.lo != nil {
			t.Fatalf("Define %d derived the filings or built the table or the walk's scratch", i)
		}
	}
	log(t, s, b, c, createStock, 1)
	s.CheckTriggered(c.Now())
	tid := b.Registry().Intern(createStock)
	if !s.derived || len(s.listen.probes(tid)) != 1000 || len(s.probe.lo) != 1000 {
		t.Fatalf("the first check left the table probing %d ranks, the scratch over %d",
			len(s.listen.probes(tid)), len(s.probe.lo))
	}
	verifyIndex(t, &s.line)

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
// scratch; the next walk starts clean. The cut walk marks x; a new
// transaction leaves x neither pending nor probed, and the next walk,
// which only y's arrival starts, must leave no mark of x behind.
func TestWalkAfterCutWalkStartsClean(t *testing.T) {
	s, b, c := newSupport(t)
	for _, d := range []Def{
		{Name: "x", Event: calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modShowQty)))},
		{Name: "y", Event: calculus.Conj(calculus.P(modStockQty), calculus.Neg(calculus.P(modShowQty)))},
	} {
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	s.BeginTransaction(c.Tick())
	log(t, s, b, c, createStock, 1)
	s.line.budget = calculus.NewBudget(2, time.Time{})
	if err := calculus.CatchBudget(func() { s.CheckTriggered(c.Now()) }); err == nil {
		t.Fatal("a budget of two units decided x")
	}
	s.line.budget = nil
	if !s.probe.walking || s.probe.lo[0] == notProbing {
		t.Fatal("the fault did not cut the walk short with x marked")
	}
	verifyIndex(t, &s.line)

	s.BeginTransaction(c.Tick())
	at := log(t, s, b, c, modStockQty, 1).Timestamp
	log(t, s, b, c, modShowQty, 1) // y turns inactive again before the check
	if fired := s.CheckTriggered(c.Now()); !slices.Equal(fired, []string{"y"}) {
		t.Fatalf("fired %v, want y", fired)
	}
	if m, _ := s.Mark("y"); m.TriggeredAt != at {
		t.Fatalf("y triggered at %d, want its arrival at %d", m.TriggeredAt, at)
	}
	verifyIndex(t, &s.line)
}
