package calculus

import (
	"math/rand"
	"testing"

	"chimera/internal/clock"
)

func TestSequenceChain(t *testing.T) {
	A, B, C := P(createStock), P(modStockQty), P(deleteStock)
	e := Sequence(A, B, C)
	want := Prec(Prec(A, B), C)
	if !Equal(e, want) {
		t.Fatalf("Sequence = %s", e)
	}
	// Ordered history activates it; a shuffled one does not.
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
		row{deleteStock, 1, 30},
	)
	env := &Env{Base: b}
	if !env.Active(e, 30) {
		t.Error("ordered history should activate the sequence")
	}
	b = hist(t,
		row{modStockQty, 1, 10},
		row{createStock, 1, 20},
		row{deleteStock, 1, 30},
	)
	env = &Env{Base: b}
	if env.Active(e, 30) {
		t.Error("out-of-order history must not activate the sequence")
	}
}

func TestSequenceIPerObject(t *testing.T) {
	A, B := P(createStock), P(modStockQty)
	e := SequenceI(A, B)
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 2, 20}, // different object
	)
	env := &Env{Base: b}
	if env.Active(e, 25) {
		t.Error("instance sequence must not hold across objects")
	}
}

func TestConjAllAnyOfNoneOf(t *testing.T) {
	A, B, C := P(createStock), P(modStockQty), P(deleteStock)
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 2, 20},
	)
	env := &Env{Base: b}
	if env.Active(ConjAll(A, B, C), 25) {
		t.Error("ConjAll should need all three")
	}
	if !env.Active(ConjAll(A, B), 25) {
		t.Error("ConjAll of the two occurred events should hold")
	}
	if !env.Active(AnyOf(C, B), 25) {
		t.Error("AnyOf should hold via B")
	}
	if env.Active(NoneOf(A, C), 25) {
		t.Error("NoneOf must fail when A occurred")
	}
	if !env.Active(NoneOf(C), 25) {
		t.Error("NoneOf of an absent event should hold")
	}
	if !env.Active(Absent(C), 25) || env.Active(Absent(A), 25) {
		t.Error("Absent wrong")
	}
}

// NoneOf is De Morgan-equal to the conjunction of negations, pointwise.
func TestNoneOfDeMorgan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	vocab := DefaultVocabulary()
	A, B := P(vocab[0]), P(vocab[1])
	for i := 0; i < 40; i++ {
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 3, Events: 8})
		env := &Env{Base: base}
		for at := clock.Time(1); at <= now; at++ {
			if x, y := env.TS(NoneOf(A, B), at), env.TS(Conj(Neg(A), Neg(B)), at); x != y {
				t.Fatalf("NoneOf != -A + -B at t=%d: %d vs %d", at, int64(x), int64(y))
			}
		}
	}
}

func TestWithoutIntervening(t *testing.T) {
	A, X, B := P(createStock), P(modStockMin), P(modStockQty)
	e := WithoutIntervening(A, X, B)
	// Clean pair: active.
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
	)
	env := &Env{Base: b}
	if !env.Active(e, 25) {
		t.Error("clean a..b pair should activate")
	}
	// Interloper between them: inactive.
	b = hist(t,
		row{createStock, 1, 10},
		row{modStockMin, 1, 15},
		row{modStockQty, 1, 20},
	)
	env = &Env{Base: b}
	if env.Active(e, 25) {
		t.Error("an intervening x must refute the pair")
	}
	// Interloper after b: still active.
	b = hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
		row{modStockMin, 1, 30},
	)
	env = &Env{Base: b}
	if !env.Active(e, 35) {
		t.Error("an x after b must not refute the pair")
	}
}

func TestGuardedBy(t *testing.T) {
	A, G := P(createStock), P(deleteStock)
	b := hist(t, row{createStock, 1, 10})
	env := &Env{Base: b}
	if env.Active(GuardedBy(A, G, true), 15) {
		t.Error("positive guard without guard event should fail")
	}
	if !env.Active(GuardedBy(A, G, false), 15) {
		t.Error("negative guard without guard event should hold")
	}
	if _, err := b.Append(deleteStock, 1, 20); err != nil {
		t.Fatal(err)
	}
	if !env.Active(GuardedBy(A, G, true), 25) {
		t.Error("positive guard with guard event should hold")
	}
	if env.Active(GuardedBy(A, G, false), 25) {
		t.Error("negative guard with guard event should fail")
	}
}

func TestSameObject(t *testing.T) {
	A, B := P(createStock), P(modStockQty)
	e := SameObject(A, B)
	if !Equal(e, ConjI(A, B)) {
		t.Fatalf("SameObject = %s", e)
	}
	if err := Valid(SameObject(A, B, P(deleteStock))); err != nil {
		t.Fatalf("3-way SameObject invalid: %v", err)
	}
}

func TestDerivedPanicOnEmpty(t *testing.T) {
	for name, fn := range map[string]func(){
		"ConjAll":    func() { ConjAll() },
		"Sequence":   func() { Sequence() },
		"SequenceI":  func() { SequenceI() },
		"SameObject": func() { SameObject() },
		"DisjAll":    func() { DisjAll() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s() did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Absent is Snoop's interval negation specialized to the paper's window
// semantics: active when e has no occurrence in the observed window.
func Absent(e Expr) Expr { return Neg(e) }

// WithoutIntervening approximates Ode's "relative" / Snoop's aperiodic
// shape "b after a with no x in between, per object": the pair a <= b on
// one object, with the refutation that x slid in between expressed as
// NOT (a <= x <= b). It is exact when each primitive occurs at most once
// per object in the window (the common workflow case); with repeated
// occurrences the calculus compares latest activations, as everywhere
// else in the paper.
func WithoutIntervening(a, x, b Expr) Expr {
	return Conj(SequenceI(a, b), Neg(SequenceI(a, x, b)))
}

// GuardedBy is REFLEX's "E1 provided E2 has (not) happened": the
// conjunction with an optional negation on the guard.
func GuardedBy(e, guard Expr, positive bool) Expr {
	if positive {
		return Conj(e, guard)
	}
	return Conj(e, Neg(guard))
}
