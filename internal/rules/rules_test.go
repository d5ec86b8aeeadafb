package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

var (
	createStock = event.Create("stock")
	modStockQty = event.Modify("stock", "quantity")
	modShowQty  = event.Modify("show", "quantity")
)

// newSupport defines defs on a new Support and opens a Session over a
// fresh base of its registry, at the clock's start; the test's cleanup
// releases it. The Support is the Session's sup.
func newSupport(t *testing.T, defs ...Def) (*Session, *event.Base, *clock.Clock) {
	t.Helper()
	s := supportWith(t, defs)
	b, c := s.testBase(0), clock.New()
	sess := s.NewSession(b, c.Now())
	t.Cleanup(sess.Release)
	return sess, b, c
}

// log appends one occurrence to b and announces it to sess.
func log(t *testing.T, sess *Session, b *event.Base, c *clock.Clock, ty event.Type, oid types.OID) event.Occurrence {
	t.Helper()
	occ, err := b.Append(ty, oid, c.Tick())
	if err != nil {
		t.Fatal(err)
	}
	sess.NotifyArrivals(tidsOf(b, []event.Occurrence{occ}))
	return occ
}

func TestDefineValidation(t *testing.T) {
	s := NewSupport(nil, Options{})
	if err := s.Define(Def{Name: "", Event: calculus.P(createStock)}); err == nil {
		t.Error("unnamed rule accepted")
	}
	if err := s.Define(Def{Name: "r"}); err == nil {
		t.Error("rule without event accepted")
	}
	if err := s.Define(Def{Name: "r", Event: calculus.NegI(calculus.Disj(calculus.P(createStock), calculus.P(modStockQty)))}); err == nil {
		t.Error("invalid expression accepted")
	}
	if err := s.Define(Def{Name: "r", Target: "show", Event: calculus.P(createStock)}); err == nil {
		t.Error("target mismatch accepted")
	}
	if err := s.Define(Def{Name: "r", Target: "stock",
		Event: calculus.Conj(calculus.P(createStock), calculus.P(modStockQty))}); err != nil {
		t.Errorf("targeted rule rejected: %v", err)
	}
	if err := s.Define(Def{Name: "r", Event: calculus.P(createStock)}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestBasicTriggerDetriggerCycle(t *testing.T) {
	s, b, c := newSupport(t, Def{Name: "onCreate", Event: calculus.P(createStock)})

	// No events: nothing triggers.
	if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
		t.Fatalf("fired %v with empty base", fired)
	}

	occ := log(t, s, b, c, createStock, 1)
	fired := s.CheckTriggered(c.Now())
	if len(fired) != 1 || fired[0] != "onCreate" {
		t.Fatalf("fired = %v", fired)
	}
	m, _ := s.Mark("onCreate")
	if !m.Triggered || m.TriggeredAt != occ.Timestamp {
		t.Fatalf("mark = %+v", m)
	}

	// Triggered rules are not re-examined.
	log(t, s, b, c, createStock, 2)
	if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
		t.Fatal("already-triggered rule fired again")
	}

	// Consideration detriggers; old events cannot re-trigger.
	cons, err := s.Consider("onCreate", c.Tick())
	if err != nil {
		t.Fatal(err)
	}
	if cons.Since != 0 {
		t.Errorf("consuming window since = %d, want 0 (previous consideration)", cons.Since)
	}
	if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
		t.Fatal("consumed events re-triggered the rule")
	}

	// A fresh event triggers again.
	log(t, s, b, c, createStock, 3)
	if fired := s.CheckTriggered(c.Now()); len(fired) != 1 {
		t.Fatal("fresh event did not re-trigger")
	}
}

func TestPriorityOrder(t *testing.T) {
	s, b, c := newSupport(t,
		Def{Name: "zeta", Priority: 1, Event: calculus.P(createStock)},
		Def{Name: "alpha", Priority: 2, Event: calculus.P(createStock)},
		Def{Name: "beta", Priority: 1, Event: calculus.P(createStock)})
	log(t, s, b, c, createStock, 1)
	fired := s.CheckTriggered(c.Now())
	want := []string{"beta", "zeta", "alpha"} // priority, then name
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if name, ok := s.Pick(nil); !ok || name != "beta" {
		t.Fatalf("Pick = %q", name)
	}
	// Coupling filter.
	if _, ok := s.Pick(func(d Def) bool { return d.Coupling == Deferred }); ok {
		t.Error("Pick found a deferred rule among immediate ones")
	}
}

func TestPreservingConsumptionWindow(t *testing.T) {
	s, b, c := newSupport(t,
		Def{Name: "p", Consumption: Preserving, Event: calculus.P(createStock)},
		Def{Name: "q", Consumption: Consuming, Event: calculus.P(createStock)})
	log(t, s, b, c, createStock, 1)
	s.CheckTriggered(c.Now())
	first, _ := s.Consider("p", c.Tick())
	if first.Since != 0 {
		t.Fatalf("first consideration window since = %d", first.Since)
	}
	log(t, s, b, c, createStock, 2)
	s.CheckTriggered(c.Now())
	second, _ := s.Consider("p", c.Tick())
	// Preserving: the window still starts at the transaction start.
	if second.Since != 0 {
		t.Fatalf("preserving window since = %d, want 0", second.Since)
	}

	// A consuming rule instead observes only the suffix.
	log(t, s, b, c, createStock, 3)
	s.CheckTriggered(c.Now())
	s.Consider("q", c.Tick())
	log(t, s, b, c, createStock, 4)
	s.CheckTriggered(c.Now())
	cons, _ := s.Consider("q", c.Tick())
	if cons.Since == 0 {
		t.Fatal("consuming window should start at the previous consideration")
	}
}

func TestFilterSkipsIrrelevantRules(t *testing.T) {
	s, b, c := newSupport(t,
		Def{Name: "stockRule", Event: calculus.P(createStock)},
		Def{Name: "showRule", Event: calculus.P(modShowQty)})
	log(t, s, b, c, createStock, 1)
	fired := s.CheckTriggered(c.Now())
	if len(fired) != 1 || fired[0] != "stockRule" {
		t.Fatalf("fired = %v", fired)
	}
	st := s.Stats()
	if st.RulesSkipped != 1 || st.RulesExamined != 2 {
		t.Errorf("examined %d, skipped %d; want 2 and 1 (showRule)", st.RulesExamined, st.RulesSkipped)
	}
}

// The pure Δ− skip: a rule on A + -B is not recomputed when only B
// arrives, and that is semantically safe (it could only have gone
// inactive).
func TestFilterSkipsPureNegativeArrival(t *testing.T) {
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	s, b, c := newSupport(t, Def{Name: "r", Event: e})
	log(t, s, b, c, modStockQty, 1) // pure Δ− arrival
	if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
		t.Fatal("rule fired on a pure Δ− arrival")
	}
	if st := s.Stats(); st.RulesSkipped != 1 {
		t.Errorf("RulesSkipped = %d, want 1", st.RulesSkipped)
	}
	// Then A arrives: the rule must NOT fire (B is already in R at an
	// earlier instant... B arrived before A, so at probe t_A the negation
	// is inactive).
	log(t, s, b, c, createStock, 2)
	if fired := s.CheckTriggered(c.Now()); len(fired) != 0 {
		t.Fatal("rule fired although -B is inactive at every probe")
	}
}

// The ∃t' probe catches an activation that is over by the block
// boundary: A then B inside one block. The paper's implementation sketch,
// ts at the check instant only, would miss it.
func TestBoundaryOnlyMissesTransient(t *testing.T) {
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))

	s, b, c := newSupport(t, Def{Name: "r", Event: e})
	log(t, s, b, c, createStock, 1)
	log(t, s, b, c, modStockQty, 1)
	if fired := s.CheckTriggered(c.Now()); len(fired) != 1 {
		t.Fatal("formal semantics should catch the transient activation")
	}
	env := calculus.Env{Base: b, Since: s.Start()}
	if env.TS(e, c.Now()).Active() {
		t.Fatal("test premise: the activation must be over at the check instant")
	}
}

// The positive control beside TestBoundaryOnlyMissesTransient: when only
// A arrives, the activation lasts to the check instant, where the
// implementation sketch would see it too.
func TestBoundaryOnlyPositiveControl(t *testing.T) {
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	s, b, c := newSupport(t, Def{Name: "r", Event: e})
	log(t, s, b, c, createStock, 1) // only A arrives
	if fired := s.CheckTriggered(c.Now()); len(fired) != 1 {
		st, _ := s.sup.Rule("r")
		t.Fatalf("fired=%v state=%+v now=%d", fired, st, c.Now())
	}
	env := calculus.Env{Base: b, Since: s.Start()}
	if !env.TS(e, c.Now()).Active() {
		t.Fatal("the activation must last to the check instant")
	}
}

// The production support agrees with the oracle, which examines every
// non-triggered rule at every check, on which rules trigger and when, on
// random workloads — the V(E) filter is a pure optimization.
func TestOptimizedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vocab := calculus.DefaultVocabulary()
	for trial := 0; trial < 60; trial++ {
		opts := calculus.GenOptions{Types: vocab, MaxDepth: 3,
			AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
		defs := make([]Def, 5)
		for i := range defs {
			defs[i] = Def{Name: string(rune('a' + i)), Event: calculus.GenExpr(r, opts), Priority: i}
		}
		run := func(mk maker) [][]firing {
			b := event.NewBase()
			c := clock.New()
			s := mk(t, b, c.Now(), defs)
			var rounds [][]firing
			for block := 0; block < 5; block++ {
				n := 1 + r.Intn(3)
				var occs []event.Occurrence
				for i := 0; i < n; i++ {
					occ, err := b.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(3)), c.Tick())
					if err != nil {
						t.Fatal(err)
					}
					occs = append(occs, occ)
				}
				s.NotifyArrivals(tidsOf(b, occs))
				var round []firing
				for _, name := range s.CheckTriggered(c.Now()) {
					m, _ := s.Mark(name)
					round = append(round, firing{name, m.TriggeredAt})
				}
				rounds = append(rounds, round)
				// Occasionally consider the head of the queue.
				if name, ok := s.Pick(nil); ok && r.Intn(2) == 0 {
					s.Consider(name, c.Tick())
				}
			}
			return rounds
		}
		seed := r.Int63()
		r = rand.New(rand.NewSource(seed))
		want := run(reference)
		r = rand.New(rand.NewSource(seed))
		sameFirings(t, fmt.Sprintf("trial %d", trial), want, run(production))
	}
}

// Original Chimera's event language is a disjunction of primitive types,
// and its triggering a type index: a block triggers exactly the rules
// listening to a type that arrived in it. On that language the calculus
// must decide the same. Consuming rules over random three-type
// disjunctions, every fired rule considered after each block, so each
// block's firings are its own arrivals' listeners.
func TestDisjunctionOnlyIsTypeIndex(t *testing.T) {
	var vocab []event.Type
	for i := 0; i < 8; i++ {
		cls := fmt.Sprintf("c%d", i)
		vocab = append(vocab, event.Create(cls), event.Delete(cls), event.Modify(cls, "a"))
	}
	for _, n := range []int{10, 100, 1000} {
		r := rand.New(rand.NewSource(int64(n)))
		listeners := make(map[event.Type][]int)
		defs := make([]Def, n)
		for i := range defs {
			var prims []calculus.Expr
			for _, k := range r.Perm(len(vocab))[:3] {
				prims = append(prims, calculus.P(vocab[k]))
				listeners[vocab[k]] = append(listeners[vocab[k]], i)
			}
			defs[i] = Def{Name: fmt.Sprintf("r%04d", i), Event: calculus.DisjAll(prims...), Priority: i}
		}
		s, b, c := newSupport(t, defs...)
		fired := 0
		for block := 0; block < 50; block++ {
			reached := make([]bool, n)
			var occs []event.Occurrence
			for i := 1 + r.Intn(4); i > 0; i-- {
				occ, err := b.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(16)), c.Tick())
				if err != nil {
					t.Fatal(err)
				}
				occs = append(occs, occ)
				for _, k := range listeners[occ.Type] {
					reached[k] = true
				}
			}
			var want []string
			for i, ok := range reached {
				if ok {
					want = append(want, fmt.Sprintf("r%04d", i))
				}
			}
			s.NotifyArrivals(tidsOf(b, occs))
			got := s.CheckTriggered(c.Now())
			if !slices.Equal(got, want) {
				t.Fatalf("%d rules, block %d: fired %v, the type index says %v", n, block, got, want)
			}
			fired += len(got)
			for _, name := range got {
				if _, err := s.Consider(name, c.Tick()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if fired == 0 || fired == 50*n {
			t.Errorf("%d rules: %d firings over 50 blocks; the type index must separate the rules", n, fired)
		}
	}
}

// The kernel-only calls run one Session of the Support's own:
// BeginTransaction releases it and opens the next, whose marks start
// over, and Define fails while it is open, as under any Session.
func TestBeginTransactionResets(t *testing.T) {
	b, c := event.NewBase(), clock.New()
	s := NewSupport(b, Options{})
	if err := s.Define(Def{Name: "r", Event: calculus.P(createStock)}); err != nil {
		t.Fatal(err)
	}
	s.BeginTransaction(c.Now())
	occ, err := b.Append(createStock, 1, c.Tick())
	if err != nil {
		t.Fatal(err)
	}
	s.NotifyArrivals([]event.Occurrence{occ})
	if fired := s.CheckTriggered(c.Now()); !slices.Equal(fired, []string{"r"}) {
		t.Fatalf("fired %v", fired)
	}
	if name, ok := s.Pick(nil); !ok || name != "r" {
		t.Fatalf("Pick = %q %v", name, ok)
	}
	if err := s.Define(Def{Name: "late", Event: calculus.P(createStock)}); err == nil {
		t.Fatal("Define succeeded while the Support's own Session is open")
	}
	first := s.own
	// New transaction: every mark resets to its start.
	start := c.Tick()
	s.BeginTransaction(start)
	if s.sessions != 1 || s.own != first {
		t.Fatalf("BeginTransaction left %d sessions open; recycled the released one: %v", s.sessions, s.own == first)
	}
	if m, _ := s.own.Mark("r"); m.Triggered || m.TriggeredAt != clock.Never || m.LastConsideration != start {
		t.Fatalf("mark %+v survived the transaction boundary", m)
	}
	if s.Watermark() != start {
		t.Fatalf("watermark %d, want the new start %d", s.Watermark(), start)
	}
	if fired := s.CheckTriggered(c.Tick()); len(fired) != 0 {
		t.Fatal("rule fired with no events in the new transaction")
	}
	if got := s.Stats().Checks; got != 2 {
		t.Fatalf("Stats counts %d checks, want the released Session's one and the open one's", got)
	}
}

func TestDrop(t *testing.T) {
	s := NewSupport(nil, Options{})
	s.Define(Def{Name: "r", Event: calculus.P(createStock)})
	if err := s.Drop("r"); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("r"); err == nil {
		t.Fatal("double drop accepted")
	}
	if got := s.Rules(); len(got) != 0 {
		t.Fatalf("Rules = %v", got)
	}
}

// Define keeps the queue sorted by inserting, Drop by splicing: after any
// sequence of both, the queue is the (priority, name) sort of the rules
// defined.
func TestDefineInsertsInQueueOrder(t *testing.T) {
	s := NewSupport(nil, Options{})
	r := rand.New(rand.NewSource(7))
	var defs []Def
	for i := 0; i < 1000; i++ {
		d := Def{Name: fmt.Sprintf("r%03d", r.Intn(1e6)), Priority: r.Intn(9) - 4, Event: calculus.P(createStock)}
		if err := s.Define(d); err != nil {
			continue // a duplicate name
		}
		defs = append(defs, d)
		if i%10 == 9 {
			k := r.Intn(len(defs))
			if err := s.Drop(defs[k].Name); err != nil {
				t.Fatal(err)
			}
			defs = append(defs[:k], defs[k+1:]...)
		}
	}
	sort.Slice(defs, func(i, j int) bool {
		if defs[i].Priority != defs[j].Priority {
			return defs[i].Priority < defs[j].Priority
		}
		return defs[i].Name < defs[j].Name
	})
	names := s.Rules()
	if len(names) != len(defs) {
		t.Fatalf("%d rules queued, %d defined", len(names), len(defs))
	}
	for i, d := range defs {
		if names[i] != d.Name || s.ordered[i].Def.Name != d.Name {
			t.Fatalf("queue[%d] = %s / %s, want %s", i, names[i], s.ordered[i].Def.Name, d.Name)
		}
	}
}

// Pick runs once per consideration: it returns the first triggered rule
// without building the list of all of them.
func TestPickAllocatesNothing(t *testing.T) {
	defs := make([]Def, 200)
	for i := range defs {
		defs[i] = Def{Name: fmt.Sprintf("r%03d", i), Priority: i % 5, Event: calculus.P(createStock)}
	}
	sess, b, c := newSupport(t, defs...)
	log(t, sess, b, c, createStock, 1)
	if fired := sess.CheckTriggered(c.Now()); len(fired) != 200 {
		t.Fatalf("%d rules triggered, want 200", len(fired))
	}
	if name, ok := sess.Pick(nil); !ok || name != sess.Triggered(nil)[0] {
		t.Fatalf("Pick = %q, want the head of Triggered", name)
	}
	immediate := func(d Def) bool { return d.Coupling == Immediate }
	if n := testing.AllocsPerRun(100, func() { sess.Pick(immediate) }); n != 0 {
		t.Errorf("Pick allocates %v times", n)
	}
}
