package calculus

import (
	"testing"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// Exhaustive verification over EVERY event history of length ≤ 4 drawn
// from {A, B} × {o1, o2} (341 histories) and a catalog of expressions
// covering every operator at both granularities. Random testing
// elsewhere samples; this suite enumerates, so a semantics bug in the
// small cannot hide.

type slot struct {
	ty  event.Type
	oid types.OID
}

func exhaustiveSlots() []slot {
	A := event.Create("a")
	B := event.Create("b")
	return []slot{{A, 1}, {A, 2}, {B, 1}, {B, 2}}
}

// forEachHistory enumerates histories up to maxLen and calls fn with the
// built base and the final instant.
func forEachHistory(t *testing.T, maxLen int, fn func(*event.Base, clock.Time)) {
	t.Helper()
	slots := exhaustiveSlots()
	var build func(prefix []slot)
	build = func(prefix []slot) {
		b := event.NewBase()
		for i, s := range prefix {
			if _, err := b.Append(s.ty, s.oid, clock.Time(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		fn(b, clock.Time(len(prefix)+1))
		if len(prefix) == maxLen {
			return
		}
		for _, s := range slots {
			build(append(prefix, s))
		}
	}
	build(nil)
}

func exhaustiveCatalog() []Expr {
	A := P(event.Create("a"))
	B := P(event.Create("b"))
	return []Expr{
		A, B,
		Neg(A), Neg(Neg(A)),
		Conj(A, B), Disj(A, B), Prec(A, B), Prec(B, A),
		Conj(A, Neg(B)), Disj(Neg(A), B),
		Neg(Conj(A, B)), Neg(Disj(A, B)),
		Prec(Neg(A), B), Prec(A, Neg(B)),
		Conj(Disj(A, B), Neg(Prec(A, B))),
		ConjI(A, B), DisjI(A, B), PrecI(A, B), NegI(A),
		NegI(ConjI(A, B)), NegI(DisjI(A, B)),
		Conj(A, ConjI(A, B)), Disj(NegI(ConjI(A, B)), B),
		ConjI(A, NegI(B)), PrecI(NegI(A), B),
	}
}

// Every catalog expression satisfies, on every history and at every
// instant: (1) the witness invariant (ts is ±t or ±(an arrival stamp));
// (2) De Morgan against its mechanically negated dual at the set level;
// (3) PlanEval, whose lifts range over the objects the expression's own
// types touched where restrictionSafe allows, agrees value for value.
func TestExhaustiveInvariants(t *testing.T) {
	catalog := exhaustiveCatalog()
	forEachHistory(t, 4, func(b *event.Base, horizon clock.Time) {
		stamps := map[clock.Time]bool{}
		for _, o := range b.All() {
			stamps[o.Timestamp] = true
		}
		full := &Env{Base: b}
		pe, roots := evaluator(b, catalog...)
		for i, e := range catalog {
			for at := clock.Time(1); at <= horizon; at++ {
				v := full.TS(e, at)
				abs := clock.Time(v)
				if v < 0 {
					abs = clock.Time(-v)
				}
				if abs != at && !stamps[abs] {
					t.Fatalf("witness violated: ts(%s, %d) = %d on %v", e, at, int64(v), b.All())
				}
				if r := pe.TS(roots[i], at, clock.Never); r != v {
					t.Fatalf("PlanEval ts(%s, %d) = %d, definition %d on %v", e, at, int64(r), int64(v), b.All())
				}
			}
		}
	})
}

// De Morgan and double negation, exhaustively, at the set level.
func TestExhaustiveDeMorgan(t *testing.T) {
	A := P(event.Create("a"))
	B := P(event.Create("b"))
	pairs := []struct{ l, r Expr }{
		{Neg(Conj(A, B)), Disj(Neg(A), Neg(B))},
		{Neg(Disj(A, B)), Conj(Neg(A), Neg(B))},
		{Neg(Neg(A)), A},
		{Conj(A, B), Conj(B, A)},
		{Disj(A, B), Disj(B, A)},
	}
	forEachHistory(t, 4, func(b *event.Base, horizon clock.Time) {
		env := &Env{Base: b}
		for _, p := range pairs {
			for at := clock.Time(1); at <= horizon; at++ {
				if x, y := env.TS(p.l, at), env.TS(p.r, at); x != y {
					t.Fatalf("%s = %d but %s = %d at t=%d on %v",
						p.l, int64(x), p.r, int64(y), at, b.All())
				}
			}
		}
	})
}

// The ∃t' probe agrees with a literal scan of every instant,
// exhaustively (this is the definition of Section 4.4 applied
// point-blank).
func TestExhaustiveTriggerProbe(t *testing.T) {
	catalog := exhaustiveCatalog()
	forEachHistory(t, 3, func(b *event.Base, horizon clock.Time) {
		for _, since := range []clock.Time{0, 1, 2} {
			if since >= horizon {
				continue
			}
			env := &Env{Base: b, Since: since}
			for _, e := range catalog {
				got, _ := env.Triggered(e, horizon)
				want := false
				if !b.Empty(since, horizon) {
					for at := since + 1; at <= horizon; at++ {
						if env.TS(e, at).Active() {
							want = true
							break
						}
					}
				}
				if got != want {
					t.Fatalf("probe mismatch for %s (since=%d) on %v: got %v want %v",
						e, since, b.All(), got, want)
				}
			}
		}
	})
}

// The per-object ots agrees with the set-level ts when the history
// touches a single object (the two granularities coincide by
// construction on one-object worlds).
func TestExhaustiveSingleObjectCoincidence(t *testing.T) {
	A := event.Create("a")
	B := event.Create("b")
	slots := []slot{{A, 1}, {B, 1}}
	instCatalog := []Expr{
		P(A), ConjI(P(A), P(B)), DisjI(P(A), P(B)), PrecI(P(A), P(B)), NegI(P(A)),
		ConjI(P(A), NegI(P(B))),
	}
	var setOf func(Expr) Expr
	setOf = func(e Expr) Expr {
		switch n := e.(type) {
		case Prim:
			return n
		case Not:
			return Neg(setOf(n.X))
		case And:
			return Conj(setOf(n.L), setOf(n.R))
		case Or:
			return Disj(setOf(n.L), setOf(n.R))
		case Seq:
			return Prec(setOf(n.L), setOf(n.R))
		}
		return e
	}
	var build func(prefix []slot)
	build = func(prefix []slot) {
		b := event.NewBase()
		for i, s := range prefix {
			b.Append(s.ty, s.oid, clock.Time(i+1))
		}
		env := &Env{Base: b}
		horizon := clock.Time(len(prefix) + 1)
		for _, e := range instCatalog {
			for at := clock.Time(1); at <= horizon; at++ {
				inst := env.OTS(e, at, 1)
				set := env.TS(setOf(e), at)
				if inst.Active() != set.Active() {
					t.Fatalf("one-object world: ots(%s)=%d vs ts(%s)=%d at t=%d on %v",
						e, int64(inst), setOf(e), int64(set), at, b.All())
				}
			}
		}
		if len(prefix) == 4 {
			return
		}
		for _, s := range slots {
			build(append(prefix, s))
		}
	}
	build(nil)
}
