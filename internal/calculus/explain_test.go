package calculus

import (
	"math/rand"
	"strings"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/event"
)

// explain is PlanEval.Explain of e at t over the whole of b.
func explain(b *event.Base, e Expr, t clock.Time) ExplainNode {
	pe, roots := evaluator(b, e)
	return pe.Explain(roots[0], t, clock.Never)
}

// explainTrigger is PlanEval.ExplainTrigger of e over (clock.Never, now].
func explainTrigger(b *event.Base, e Expr, now clock.Time) string {
	pe, roots := evaluator(b, e)
	return pe.ExplainTrigger(roots[0], clock.Never, now)
}

// Explain's value at the root of the tree equals the definition's TS —
// the explanation never lies.
func TestExplainMatchesTS(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	vocab := DefaultVocabulary()
	opts := GenOptions{Types: vocab, MaxDepth: 4,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for i := 0; i < 150; i++ {
		e := GenExpr(r, opts)
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 3, Events: 10})
		env := &Env{Base: base}
		pe, roots := evaluator(base, e)
		for at := clock.Time(1); at <= now; at += 3 {
			node := pe.Explain(roots[0], at, clock.Never)
			if node.Value != env.TS(e, at) {
				t.Fatalf("Explain root value %d != TS %d for %s at t=%d",
					int64(node.Value), int64(env.TS(e, at)), e, at)
			}
		}
	}
}

func TestExplainTree(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
	)
	e := Conj(P(createStock), Neg(P(deleteStock)))
	node := explain(b, e, 25)
	if !node.Active() {
		t.Fatal("conjunction should be active")
	}
	s := node.String()
	for _, want := range []string{
		"create(stock) + -delete(stock)",
		"ACTIVE",
		"last occurrence at t10",
		"no occurrence in window",
		"negation flips",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

func TestExplainPrecedenceAnchor(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
	)
	s := explain(b, Prec(P(createStock), P(modStockQty)), 25).String()
	if !strings.Contains(s, "anchor t20") && !strings.Contains(s, "stamp t20") {
		t.Errorf("precedence explanation lacks the anchor:\n%s", s)
	}
	// Inactive second component short-circuits.
	s = explain(b, Prec(P(modStockQty), P(deleteStock)), 25).String()
	if !strings.Contains(s, "second component inactive") {
		t.Errorf("short-circuit note missing:\n%s", s)
	}
}

func TestExplainLiftQuantifiers(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 2, 20},
	)
	s := explain(b, ConjI(P(createStock), P(modStockQty)), 25).String()
	if !strings.Contains(s, "existential lift") || !strings.Contains(s, "ots for o1") {
		t.Errorf("existential lift explanation:\n%s", s)
	}
	s = explain(b, NegI(ConjI(P(createStock), P(modStockQty))), 25).String()
	if !strings.Contains(s, "universal lift") {
		t.Errorf("universal lift explanation:\n%s", s)
	}
}

func TestExplainTrigger(t *testing.T) {
	// Empty window.
	s := explainTrigger(hist(t), P(createStock), 10)
	if !strings.Contains(s, "R is empty") {
		t.Errorf("empty-R verdict missing:\n%s", s)
	}
	// Transient activation found by the probe.
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
	)
	s = explainTrigger(b, Conj(P(createStock), Neg(P(modStockQty))), 25)
	if !strings.Contains(s, "TRIGGERED") || !strings.Contains(s, "t' = t10") {
		t.Errorf("probe verdict:\n%s", s)
	}
	// Never active.
	s = explainTrigger(b, P(deleteStock), 25)
	if !strings.Contains(s, "not triggered") {
		t.Errorf("negative verdict:\n%s", s)
	}
}
