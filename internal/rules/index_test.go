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
// it is not stale it must equal what a recomputation from the States
// yields — ranks, triggered set, watermark — and the worklist must hold
// every rule a check would have to evaluate.
func (l *line) checkIndex() error {
	if l.stale {
		return nil
	}
	words := (len(l.ordered) + 63) >> 6
	if len(l.queue) != words || len(l.trig) != words {
		return fmt.Errorf("sets of %d and %d words for %d rules", len(l.queue), len(l.trig), len(l.ordered))
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
	for i, st := range l.ordered {
		if int(st.rank) != i {
			return fmt.Errorf("rule %s at %d has rank %d", st.Def.Name, i, st.rank)
		}
		if has(l.trig, i) != st.Triggered {
			return fmt.Errorf("rule %s: Triggered = %v, in the triggered set: %v", st.Def.Name, st.Triggered, has(l.trig, i))
		}
		if st.pending && !st.Triggered && !has(l.queue, i) {
			return fmt.Errorf("rule %s is pending but not on the worklist", st.Def.Name)
		}
	}
	min, holders := walkHorizon(l)
	if len(l.ordered) > 0 && (l.wmMin != min || l.wmHolders != holders) {
		return fmt.Errorf("watermark %d held by %d, States say %d held by %d", l.wmMin, l.wmHolders, min, holders)
	}
	return l.checkProbeIndex()
}

// probeBuildsChecked records, per line, the build of its inverted index
// whose lists checkProbeIndex last compared with their definition.
var probeBuildsChecked = map[*line]int{}

// checkProbeIndex holds a built inverted V(E) index to its definition:
// between checks no rank is marked, and the ranks filed under each type
// id are, in queue order, the non-monotone rules whose V(E) mentions that
// type (the lists are compared once per build).
func (l *line) checkProbeIndex() error {
	p := &l.probe
	if p.base == nil || p.base != l.base {
		return nil
	}
	if len(p.lo) != len(l.ordered) {
		return fmt.Errorf("probe index marks %d ranks for %d rules", len(p.lo), len(l.ordered))
	}
	for i, lo := range p.lo {
		if lo != notProbing {
			return fmt.Errorf("rule %s is still marked for the walk at %d", l.ordered[i].Def.Name, lo)
		}
	}
	if probeBuildsChecked[l] == p.builds {
		return nil
	}
	probeBuildsChecked[l] = p.builds
	want := make([][]int32, len(p.off)-1)
	var all []int32
	for i, st := range l.ordered {
		if st.monotone {
			continue
		}
		if st.Filter.MatchAll {
			all = append(all, int32(i))
			continue
		}
		for _, ty := range st.Filter.MentionedTypes() {
			tid, ok := l.base.TypeID(ty)
			if !ok || int(tid) >= len(want) {
				return fmt.Errorf("rule %s mentions %v, which the index has no list for", st.Def.Name, ty)
			}
			want[tid] = append(want[tid], int32(i))
		}
	}
	if !slices.Equal(p.all, all) {
		return fmt.Errorf("match-all ranks %v, the rules say %v", p.all, all)
	}
	for tid, ranks := range want {
		if got := p.ranks[p.off[tid]:p.off[tid+1]]; !slices.Equal(got, ranks) {
			return fmt.Errorf("type id %d files ranks %v, the rules say %v", tid, got, ranks)
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
// States and the queue order.

// walkBatch is the batch a check would examine, with the examined and
// skipped counts the walk accumulates.
func walkBatch(l *line) (batch []string, examined, skipped int64) {
	for _, st := range l.ordered {
		if st.Triggered {
			continue
		}
		examined++
		if !st.pending {
			skipped++
			continue
		}
		batch = append(batch, st.Def.Name)
	}
	return batch, examined, skipped
}

func walkTriggered(l *line, filter func(Def) bool) []string {
	var out []string
	for _, st := range l.ordered {
		if st.Triggered && (filter == nil || filter(st.Def)) {
			out = append(out, st.Def.Name)
		}
	}
	return out
}

func walkHorizon(l *line) (min clock.Time, holders int) {
	for i, st := range l.ordered {
		switch {
		case i == 0 || st.LastConsideration < min:
			min, holders = st.LastConsideration, 1
		case st.LastConsideration == min:
			holders++
		}
	}
	return min, holders
}

func walkWatermark(l *line) clock.Time {
	if l.preserving > 0 || len(l.ordered) == 0 {
		return l.txnStart
	}
	min, _ := walkHorizon(l)
	return min
}

// walked drives one line (the Support's own or a Session's) through its
// View and compares every answer with the oracle's, computed from the
// same States.
type walked struct {
	t *testing.T
	v View
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
	for i, st := range w.l.checkBuf {
		got[i] = st.Def.Name
	}
	if !slices.Equal(got, batch) {
		w.t.Fatalf("check evaluated %v, walk says %v", got, batch)
	}
	var want []string
	for _, name := range batch {
		if w.l.rules[name].Triggered {
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
// mid-transaction Define and Drop, a checkpoint round trip through
// RestoreMarks, replayed firings through RestoreTriggered, a new
// transaction, a check cut short by its budget — with every answer
// compared to the full walk after every step.
func TestIndexMatchesFullWalk(t *testing.T) {
	for _, seed := range []int64{1996, 1997} {
		r := rand.New(rand.NewSource(seed))
		b := event.NewBase()
		c := clock.New()
		s := NewSupport(b, Options{})
		s.BeginTransaction(c.Now())
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
					at = s.TxnStart()
				}
				for _, name := range names {
					if _, err := s.Consider(name, at); err != nil {
						t.Fatal(err)
					}
					w.verify("after considering " + name + " unprompted")
					if at != s.TxnStart() {
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
				ms, start := s.Marks(), s.TxnStart()
				s.BeginTransaction(start)
				w.verify("after BeginTransaction")
				if err := s.RestoreMarks(ms); err != nil {
					t.Fatal(err)
				}
				w.verify("after RestoreMarks")
			case op == 18:
				if name, ok := pickAny(); ok {
					if err := s.RestoreTriggered(name, c.Now()); err != nil {
						t.Fatal(err)
					}
					w.verify("after RestoreTriggered of " + name)
				}
			default:
				if r.Intn(2) == 0 {
					s.BeginTransaction(c.Tick())
					w.verify("after a new transaction")
					break
				}
				s.SetBudget(calculus.NewBudget(int64(1+r.Intn(6)), time.Time{}))
				err := w.check(c.Now()) // may or may not run out
				s.SetBudget(nil)
				if err != nil {
					// The killed check left some rules decided and some
					// not; the next one picks up exactly the rest. If the
					// fault cut an arrival walk short, the next walk
					// rebuilds the inverted index first.
					cut, builds := s.probe.base == nil && s.probe.lo != nil, s.probe.builds
					if err := w.check(c.Now()); err != nil {
						t.Fatal(err)
					}
					if cut && s.probe.base != nil && s.probe.builds != builds+1 {
						t.Fatalf("a walk after a cut one ran on the old index (%d builds, then %d)", builds, s.probe.builds)
					}
				}
			}
		}
	}
}

// The same script over a Session's line, beside the Support's own line
// serving a different history: the two indexes share nothing.
func TestIndexMatchesFullWalkInSession(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := NewSupport(event.NewBase(), Options{})
	for _, d := range scriptDefs(r, 70, "r") {
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		b := event.NewBase()
		c := clock.New()
		sess := s.NewSession(b, c.Now())
		w := walked{t: t, v: sess, l: &sess.line}
		w.verify("after NewSession")
		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); {
			case op < 4:
				sess.NotifyArrivals(scriptArrivals(t, r, b, c))
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

// hide replaces every State in the queue but those of keep with nil, so
// that a block boundary visiting any other rule crashes; the returned
// function puts them back.
func hide(l *line, keep ...string) (restore func()) {
	saved := slices.Clone(l.ordered)
	for i, st := range l.ordered {
		if !slices.Contains(keep, st.Def.Name) {
			l.ordered[i] = nil
		}
	}
	return func() { copy(l.ordered, saved) }
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

// An arrival walk visits the rules whose V(E) mentions the arrival, not
// the rules pending: the same arrivals cost the same visits under 10 and
// under 10 000 pending, undecided rules that do not mention them.
func TestProbeVisitsFollowMentions(t *testing.T) {
	var visits []int64
	for _, n := range []int{10, 10000} {
		s, b, c := newSupport(t)
		// A ∧ ¬A is inactive at every instant: every rule stays undecided
		// through the whole walk. Two rules mention create(stock), the rest
		// only modify(show.quantity), which never arrives.
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
		for i := 0; i < 20; i++ {
			log(t, s, b, c, createStock, types.OID(1+i%3))
		}
		if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
			t.Fatalf("%d rules: fired %v", n, fired)
		}
		if st := s.Stats(); st.RulesExamined-st.RulesSkipped != int64(n) {
			t.Fatalf("%d rules: the batch held %d rules, want every one pending", n, st.RulesExamined-st.RulesSkipped)
		}
		visits = append(visits, s.visits)
	}
	if visits[0] != 40 || visits[1] != visits[0] {
		t.Errorf("20 arrivals mentioned by 2 rules visited %v rules under 10 and 10 000 rules, want 40 each", visits)
	}
}

// Loading rules inverts nothing: 1 000 Defines build the inverted V(E)
// index no time, the first check that walks arrivals builds it once, and
// later checks over the same base and rules reuse it. A NewSession over
// one rule allocates no more than it did before the index existed.
func TestDefineBuildsNoProbeIndex(t *testing.T) {
	s, b, c := newSupport(t)
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	for i := 0; i < 1000; i++ {
		if err := s.Define(Def{Name: fmt.Sprintf("r%04d", i), Event: e}); err != nil {
			t.Fatal(err)
		}
	}
	if s.probe.builds != 0 {
		t.Fatalf("Define built the inverted index %d times", s.probe.builds)
	}
	for i := 0; i < 3; i++ {
		log(t, s, b, c, modShowQty, 1)
		s.CheckTriggered(c.Now())
		if s.probe.builds != 1 {
			t.Fatalf("after check %d the inverted index was built %d times, want once", i, s.probe.builds)
		}
	}

	one := NewSupport(event.NewBase(), Options{})
	if err := one.Define(Def{Name: "cap", Event: calculus.P(modStockQty)}); err != nil {
		t.Fatal(err)
	}
	const before = 10 // NewSession + Release over one rule before the index existed
	if n := testing.AllocsPerRun(100, func() { one.NewSession(b, c.Now()).Release() }); n > before {
		t.Errorf("NewSession over one rule allocates %v objects, want at most %d", n, before)
	}
}
