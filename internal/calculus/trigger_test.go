package calculus

import (
	"math/rand"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// Section 4.4: T(r,t) holds iff R is non-empty and ts(rE, t') is positive
// for some t' in (rt0, t].

// An empty R never triggers, even for a negation that would be "active"
// by pure absence — the reactive-system guard.
func TestTriggeringRequiresNonEmptyR(t *testing.T) {
	b := event.NewBase()
	env := &Env{Base: b}
	if ok, _ := env.Triggered(Neg(P(createStock)), 100); ok {
		t.Fatal("negation rule triggered on an empty event base")
	}
}

// With any (even unrelated) occurrence in R, a negation rule triggers.
func TestNegationTriggersOnUnrelatedEvent(t *testing.T) {
	b := hist(t, row{modShowQty, 9, 10})
	env := &Env{Base: b}
	ok, at := env.Triggered(Neg(P(createStock)), 20)
	if !ok {
		t.Fatal("negation rule should trigger once R is non-empty")
	}
	if at != 10 {
		t.Fatalf("trigger instant = %d, want 10 (the first arrival)", at)
	}
}

// Once an occurrence of the negated type is present, the negation no
// longer triggers — but the ∃t' quantifier still finds instants between
// the unrelated event and the negated one.
func TestExistentialProbeFindsTransientActivation(t *testing.T) {
	// A + -B with A at t10 and B at t20: at t' = 10 the expression is
	// active (B has not yet occurred), at t >= 20 it no longer is. The
	// formal semantics triggers; a check-at-now-only implementation
	// would miss it.
	A, B := P(createStock), P(modStockQty)
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
	)
	env := &Env{Base: b}
	e := Conj(A, Neg(B))
	if env.Active(e, 25) {
		t.Fatal("expression should be inactive at t=25")
	}
	ok, at := env.Triggered(e, 25)
	if !ok {
		t.Fatal("∃t' semantics should trigger via the instant t'=10")
	}
	if at != 10 {
		t.Fatalf("trigger instant = %d, want 10", at)
	}
}

// TriggeredAfter probes only instants after its low-water mark; a probe
// instant already checked cannot fire again, but later instants can.
func TestTriggeredAfterIncremental(t *testing.T) {
	A := P(createStock)
	b := hist(t,
		row{modShowQty, 9, 10},
		row{createStock, 1, 20},
	)
	env := &Env{Base: b}
	// Probing after t=10 skips the t=10 instant (already examined) but
	// finds the activation at t=20.
	ok, at := env.TriggeredAfter(A, 10, 25)
	if !ok || at != 20 {
		t.Fatalf("TriggeredAfter = (%v, %d), want (true, 20)", ok, at)
	}
	// Probing after t=20 finds nothing new: ts(A, 25) is positive but
	// the activation instant 20 is behind the low-water mark... the
	// probe at now (25) still sees ts(A,25) = 20 > 0.
	ok, at = env.TriggeredAfter(A, 20, 25)
	if !ok || at != 25 {
		t.Fatalf("TriggeredAfter(now-probe) = (%v, %d), want (true, 25)", ok, at)
	}
}

// The incremental probe is equivalent to the full probe for first-time
// triggering: if the full probe fires at instant t*, probing after any
// mark < t* fires too (ts(E, t') depends only on occurrences ≤ t').
func TestIncrementalProbeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vocab := DefaultVocabulary()
	opts := GenOptions{Types: vocab, MaxDepth: 4, AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for i := 0; i < 150; i++ {
		e := GenExpr(r, opts)
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 3, Events: 10})
		env := &Env{Base: base}
		full, at := env.Triggered(e, now)
		if !full {
			continue
		}
		ok, at2 := env.TriggeredAfter(e, at-1, now)
		if !ok || at2 != at {
			t.Fatalf("incremental probe after %d missed firing at %d for %s", at-1, at, e)
		}
	}
}

// Triggering over a consumption window: events before the last
// consideration cannot re-trigger the rule (Section 2: "events occurred
// before the consideration loose the capability of triggering").
func TestTriggeringAfterConsideration(t *testing.T) {
	A := P(createStock)
	b := hist(t, row{createStock, 1, 10})
	// Rule considered at t=15: R = (15, 20] is empty.
	env := &Env{Base: b, Since: 15}
	if ok, _ := env.Triggered(A, 20); ok {
		t.Fatal("consumed occurrence re-triggered the rule")
	}
	// A new occurrence after the consideration triggers again.
	if _, err := b.Append(createStock, 2, 18); err != nil {
		t.Fatal(err)
	}
	if ok, at := env.Triggered(A, 20); !ok || at != 18 {
		t.Fatal("fresh occurrence should trigger the rule")
	}
}

// AffectedObjects implements the occurred() event formula: it returns
// exactly the objects for which the instance expression is active.
func TestAffectedObjects(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
		row{modStockQty, 1, 30},
		row{modStockQty, 3, 40},
	)
	env := &Env{Base: b}
	// occurred(create(stock) += modify(stock.quantity), X): only o1.
	got := env.AffectedObjects(ConjI(P(createStock), P(modStockQty)), 50)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("AffectedObjects = %v, want [o1]", got)
	}
	// occurred(create(stock), X): o1 and o2.
	got = env.AffectedObjects(P(createStock), 50)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AffectedObjects = %v, want [o1 o2]", got)
	}
}

// Section 3.3's at() example: a creation followed by two quantity updates
// yields exactly the two update instants for the sequence expression.
func TestAtPredicateTwoUpdates(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
		row{modStockQty, 1, 30},
	)
	env := &Env{Base: b}
	e := PrecI(P(createStock), P(modStockQty))
	got := env.ActivationTimes(e, 40, 1)
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("ActivationTimes = %v, want [20 30]", got)
	}
	// An object never created yields none.
	if got := env.ActivationTimes(e, 40, 2); len(got) != 0 {
		t.Fatalf("ActivationTimes(o2) = %v, want empty", got)
	}
}

// Domain restriction is value-preserving: PlanEval's lifts range only
// over the objects the expression's own types touched (where
// restrictionSafe allows), the definition's over every object of R, and
// every ts value is the same on random histories.
func TestLiftDomainRestriction(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	vocab := DefaultVocabulary()
	opts := GenOptions{Types: vocab[:3], MaxDepth: 3, AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for i := 0; i < 200; i++ {
		e := GenExpr(r, opts)
		c := clock.New()
		// Histories over the full vocabulary so unrelated events and
		// objects exist.
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 5, Events: 14})
		full := &Env{Base: base}
		pe, roots := evaluator(base, e)
		for at := clock.Time(1); at <= now; at++ {
			pe.Begin(at)
			if a, b := full.TS(e, at), pe.TS(roots[0], at, clock.Never); a != b {
				t.Fatalf("domain restriction changed ts(%s, %d): %d by definition, %d restricted",
					e, at, int64(a), int64(b))
			}
		}
	}
}

// TS values are always ±(some event time stamp) or ±t — the calculus
// never invents instants.
func TestTSValuesAreWitnessed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vocab := DefaultVocabulary()
	opts := GenOptions{Types: vocab, MaxDepth: 4, AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for i := 0; i < 150; i++ {
		e := GenExpr(r, opts)
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 3, Events: 10})
		stamps := map[clock.Time]bool{}
		for _, o := range base.All() {
			stamps[o.Timestamp] = true
		}
		env := &Env{Base: base}
		for at := clock.Time(1); at <= now; at++ {
			v := env.TS(e, at)
			abs := clock.Time(v)
			if v < 0 {
				abs = clock.Time(-v)
			}
			if abs != at && !stamps[abs] {
				t.Fatalf("ts(%s, %d) = %d is not ±t and not ±(event stamp)", e, at, int64(v))
			}
		}
	}
}

var _ = types.OID(0) // keep the import when assertions above change

// For negation-free expressions activation is monotone in the probe
// instant, so the full ∃t' probe agrees with a single evaluation at now —
// the Trigger Support's monotone fast path relies on this equivalence.
func TestMonotoneFastPathEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	vocab := DefaultVocabulary()
	opts := GenOptions{Types: vocab, MaxDepth: 4,
		AllowInstance: true, AllowPrecedence: true} // no negation
	for i := 0; i < 300; i++ {
		e := GenExpr(r, opts)
		if ContainsNegation(e) {
			t.Fatal("generator produced a negation")
		}
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 4, Events: 10})
		// Random consumption horizons exercise windowed monotonicity too.
		since := clock.Time(r.Intn(int(now)))
		env := &Env{Base: base, Since: since}
		probe, _ := env.Triggered(e, now)
		single := env.TS(e, now).Active()
		if probe != single {
			t.Fatalf("monotone mismatch for %s (since=%d): probe=%v single=%v",
				e, since, probe, single)
		}
		// And activation truly never reverts within the window.
		active := false
		for at := since + 1; at <= now; at++ {
			a := env.TS(e, at).Active()
			if active && !a {
				t.Fatalf("negation-free %s deactivated at t=%d", e, at)
			}
			active = a
		}
	}
}
