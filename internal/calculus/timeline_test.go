package calculus

import (
	"testing"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// The tests in this file replay, interval by interval, every worked
// timeline of Section 3 of the paper. Each prose sentence of the form
// "at time t1 <= t < t2 the event is active and its activation time
// stamp is t1" becomes one assertion.

// hist builds an Event Base from (type, oid, time) triples.
func hist(t *testing.T, rows ...row) *event.Base {
	t.Helper()
	b := event.NewBase()
	for _, r := range rows {
		if _, err := b.Append(r.t, r.oid, r.at); err != nil {
			t.Fatalf("append %v: %v", r, err)
		}
	}
	return b
}

type row struct {
	t   event.Type
	oid types.OID
	at  clock.Time
}

var (
	createStock = event.Create("stock")
	deleteStock = event.Delete("stock")
	modStockQty = event.Modify("stock", "quantity")
	modStockMin = event.Modify("stock", "minquantity")
	modShowQty  = event.Modify("show", "quantity")
	createOrder = event.Create("stockOrder")
	modOrderDel = event.Modify("stockOrder", "delquantity")
)

// expectTS asserts ts(e, at) == want.
func expectTS(t *testing.T, env *Env, e Expr, at clock.Time, want TS) {
	t.Helper()
	if got := env.TS(e, at); got != want {
		t.Errorf("ts(%s, t=%d) = %d, want %d", e, at, int64(got), int64(want))
	}
}

// expectOTS asserts ots(e, at, oid) == want.
func expectOTS(t *testing.T, env *Env, e Expr, at clock.Time, oid types.OID, want TS) {
	t.Helper()
	if got := env.OTS(e, at, oid); got != want {
		t.Errorf("ots(%s, t=%d, %s) = %d, want %d", e, at, oid, int64(got), int64(want))
	}
}

// Section 3.1, primitive events: two occurrences of create(stock) at t1
// and t2. Before t1 not active; in [t1,t2) active with stamp t1; from t2
// active with stamp t2. We use t1=10, t2=20.
func TestSetOrientedPrimitiveTimeline(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
	)
	env := &Env{Base: b}
	e := P(createStock)

	expectTS(t, env, e, 5, -5)  // t < t1: not active (ts = -t)
	expectTS(t, env, e, 10, 10) // activation at t1
	expectTS(t, env, e, 15, 10) // t1 <= t < t2: stamp t1
	expectTS(t, env, e, 20, 20) // from t2: stamp t2
	expectTS(t, env, e, 100, 20)
}

// Section 3.1, disjunction: create(stock) at t1,t2 and
// modify(stock.quantity) at t3, t1 < t2 < t3. Not active before t1; then
// stamp t1, then t2, then t3.
func TestSetOrientedDisjunctionTimeline(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
		row{modStockQty, 1, 30},
	)
	env := &Env{Base: b}
	e := Disj(P(createStock), P(modStockQty))

	expectTS(t, env, e, 5, -5)
	expectTS(t, env, e, 12, 10)
	expectTS(t, env, e, 25, 20)
	expectTS(t, env, e, 30, 30)
	expectTS(t, env, e, 99, 30)
}

// Section 3.1, conjunction: same history. Not active until the modify at
// t3 completes the pair; then the stamp is t3 (the highest of the
// components).
func TestSetOrientedConjunctionTimeline(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
		row{modStockQty, 1, 30},
	)
	env := &Env{Base: b}
	e := Conj(P(createStock), P(modStockQty))

	expectTS(t, env, e, 5, -5)
	if env.Active(e, 15) {
		t.Error("conjunction active before second component")
	}
	if env.Active(e, 25) {
		t.Error("conjunction active before second component (after t2)")
	}
	expectTS(t, env, e, 30, 30)
	expectTS(t, env, e, 99, 30)
}

// Section 3.1, negation: first occurrence of create(stock) at t1. Before
// t1 the negation is active with the current time as stamp; from t1 it is
// not active.
func TestSetOrientedNegationTimeline(t *testing.T) {
	b := hist(t, row{createStock, 1, 10})
	env := &Env{Base: b}
	e := Neg(P(createStock))

	expectTS(t, env, e, 5, 5) // active, stamp is the current time
	expectTS(t, env, e, 9, 9)
	expectTS(t, env, e, 10, -10) // createStock active => negation inactive
	expectTS(t, env, e, 42, -10)
}

// Section 3.1, precedence: create(stock) at t1 and t2, modify at t3.
// Active from t3 with stamp t3; the paper notes the stamp "still remains"
// t3 afterwards even though a creation (t2) is more recent than another
// creation (t1), because the last creation precedes the last
// modification.
func TestSetOrientedPrecedenceTimeline(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
		row{modStockQty, 1, 30},
	)
	env := &Env{Base: b}
	e := Prec(P(createStock), P(modStockQty))

	expectTS(t, env, e, 5, -5)
	expectTS(t, env, e, 15, -15)
	expectTS(t, env, e, 25, -25)
	expectTS(t, env, e, 30, 30)
	expectTS(t, env, e, 99, 30)
}

// Precedence demands the first component to be active no later than the
// second: a modify before any create never activates create < modify.
func TestSetOrientedPrecedenceWrongOrder(t *testing.T) {
	b := hist(t,
		row{modStockQty, 1, 10},
		row{createStock, 1, 20},
	)
	env := &Env{Base: b}
	e := Prec(P(createStock), P(modStockQty))
	for _, at := range []clock.Time{5, 10, 15, 20, 30} {
		if env.Active(e, at) {
			t.Errorf("create<modify active at t=%d despite wrong order", at)
		}
	}
	// The reverse expression is active from the create on.
	rev := Prec(P(modStockQty), P(createStock))
	expectTS(t, env, rev, 20, 20)
}

// A later occurrence of the first component after the second does not
// deactivate an already-satisfied precedence (the paper's t1<t2<t3
// narrative), but a later occurrence of the second component refreshes
// the stamp.
func TestSetOrientedPrecedenceRefresh(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
		row{modStockQty, 1, 40},
	)
	env := &Env{Base: b}
	e := Prec(P(createStock), P(modStockQty))
	expectTS(t, env, e, 20, 20)
	expectTS(t, env, e, 40, 40) // refreshed to the newest modify
}

// The complex set-oriented expression of Section 3.1:
// modify(show.quantity) + -((create(stockOrder) < modify(stockOrder.delquantity)) ,
//
//	(modify(stock.minquantity) < modify(stock.quantity)))
//
// is active if a shown quantity changed and there is neither a stock
// order creation followed by a delivered-quantity change nor a
// min-quantity change followed by a quantity change.
func TestSetOrientedComplexExpression(t *testing.T) {
	e := Conj(
		P(modShowQty),
		Neg(Disj(
			Prec(P(createOrder), P(modOrderDel)),
			Prec(P(modStockMin), P(modStockQty)),
		)),
	)
	if err := Valid(e); err != nil {
		t.Fatalf("Valid: %v", err)
	}

	// Only the shown-quantity change: active.
	b := hist(t, row{modShowQty, 7, 10})
	env := &Env{Base: b}
	if !env.Active(e, 10) {
		t.Error("expected active with only modify(show.quantity)")
	}

	// Shown-quantity change but a stock order was created and its
	// delivered quantity modified: not active.
	b = hist(t,
		row{createOrder, 3, 5},
		row{modOrderDel, 3, 8},
		row{modShowQty, 7, 10},
	)
	env = &Env{Base: b}
	if env.Active(e, 10) {
		t.Error("expected inactive when the negated sequence occurred")
	}

	// The sequence occurred in the wrong order: active again.
	b = hist(t,
		row{modOrderDel, 3, 5},
		row{createOrder, 3, 8},
		row{modShowQty, 7, 10},
	)
	env = &Env{Base: b}
	if !env.Active(e, 10) {
		t.Error("expected active when the sequence is out of order")
	}
}

// Section 3.2, primitive events per object: create(stock) at t1 on O1 and
// t2 on O2.
func TestInstanceOrientedPrimitiveTimeline(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
	)
	env := &Env{Base: b}
	e := P(createStock)

	expectOTS(t, env, e, 5, 1, -5)
	expectOTS(t, env, e, 5, 2, -5)
	expectOTS(t, env, e, 15, 1, 10)
	expectOTS(t, env, e, 15, 2, -15)
	expectOTS(t, env, e, 25, 1, 10) // O1 keeps stamp t1
	expectOTS(t, env, e, 25, 2, 20)
}

// Section 3.2, instance conjunction: create(stock) += modify(stock.quantity)
// becomes active for an object O once O has been created and its quantity
// changed.
func TestInstanceOrientedConjunction(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
		row{modStockQty, 2, 30},
	)
	env := &Env{Base: b}
	e := ConjI(P(createStock), P(modStockQty))

	expectOTS(t, env, e, 35, 2, 30)
	if env.ActiveFor(e, 35, 1) {
		t.Error("conjunction active for O1 without a modify on O1")
	}
	// Lifted into a set context it is active: some object satisfies it.
	if !env.Active(e, 35) {
		t.Error("set-lifted instance conjunction should be active")
	}
	expectTS(t, env, e, 35, 30)
	// Before the modify no object satisfies it.
	if env.Active(e, 25) {
		t.Error("set-lifted instance conjunction active too early")
	}
}

// Section 3.2, instance vs set conjunction: with the create on O1 and the
// modify on O2, the set conjunction is active but the instance one is not.
func TestInstanceVsSetConjunction(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 2, 20},
	)
	env := &Env{Base: b}
	if !env.Active(Conj(P(createStock), P(modStockQty)), 25) {
		t.Error("set conjunction should be active across objects")
	}
	if env.Active(ConjI(P(createStock), P(modStockQty)), 25) {
		t.Error("instance conjunction must not be active across objects")
	}
}

// Section 3.2, instance disjunction timeline: create on O1 (t1) and O2
// (t2), modify on O1 and O3 at t3.
func TestInstanceOrientedDisjunction(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
		row{modStockQty, 1, 30},
		row{modStockQty, 3, 31},
	)
	env := &Env{Base: b}
	e := DisjI(P(createStock), P(modStockQty))

	expectOTS(t, env, e, 5, 1, -5)
	expectOTS(t, env, e, 15, 1, 10)
	expectOTS(t, env, e, 15, 2, -15)
	expectOTS(t, env, e, 25, 2, 20)
	expectOTS(t, env, e, 35, 1, 30) // O1 refreshed by its modify
	expectOTS(t, env, e, 35, 3, 31) // O3 active via the modify alone
}

// Section 3.2: on elementary event types, the instance disjunction lifted
// into a set context behaves exactly like the set disjunction.
func TestInstanceDisjunctionLiftMatchesSet(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 2, 20},
	)
	env := &Env{Base: b}
	for _, at := range []clock.Time{5, 10, 15, 20, 25} {
		set := env.TS(Disj(P(createStock), P(modStockQty)), at)
		inst := env.TS(DisjI(P(createStock), P(modStockQty)), at)
		if set.Active() != inst.Active() {
			t.Errorf("t=%d: set disj active=%v, lifted instance disj active=%v",
				at, set.Active(), inst.Active())
		}
	}
}

// Section 3.2, instance negation: create(stock) at t1 on O1 and t2 on O2.
// The negation is active for an object until its creation.
func TestInstanceOrientedNegation(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{createStock, 2, 20},
	)
	env := &Env{Base: b}
	e := NegI(P(createStock))

	expectOTS(t, env, e, 5, 1, 5)
	expectOTS(t, env, e, 5, 2, 5)
	expectOTS(t, env, e, 15, 1, -10)
	expectOTS(t, env, e, 15, 2, 15)
	expectOTS(t, env, e, 25, 1, -10)
	expectOTS(t, env, e, 25, 2, -20)
}

// Section 3.2: -= over an elementary event type used in a set context
// equals the set-oriented negation.
func TestInstanceNegationOnPrimitiveEqualsSet(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
	)
	env := &Env{Base: b}
	for _, at := range []clock.Time{5, 10, 15, 20, 25} {
		set := env.TS(Neg(P(createStock)), at)
		inst := env.TS(NegI(P(createStock)), at)
		if set.Active() != inst.Active() {
			t.Errorf("t=%d: -create active=%v, -=create active=%v",
				at, set.Active(), inst.Active())
		}
	}
}

// Section 3.2's pair of contrasted expressions:
//
//	modify(show.quantity) + -=(create(stock) += modify(stock.quantity))
//
// is active when a shown quantity changed and NO stock object was both
// created and modified;
//
//	modify(show.quantity) + -(create(stock) + modify(stock.quantity))
//
// is active when a shown quantity changed and there was neither a
// creation nor a quantity change (possibly on different objects).
func TestInstanceNegationVsSetNegation(t *testing.T) {
	instE := Conj(P(modShowQty), NegI(ConjI(P(createStock), P(modStockQty))))
	setE := Conj(P(modShowQty), Neg(Conj(P(createStock), P(modStockQty))))

	// History 1: create on O1, modify on O2 (different objects), show
	// change on O7. No single object has both => instance form active;
	// but both event types occurred => set form inactive.
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 2, 20},
		row{modShowQty, 7, 30},
	)
	env := &Env{Base: b}
	if !env.Active(instE, 30) {
		t.Error("instance negation form should be active (no object has both)")
	}
	if env.Active(setE, 30) {
		t.Error("set negation form should be inactive (both types occurred)")
	}

	// History 2: create and modify on the same object O1.
	// Both forms inactive.
	b = hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
		row{modShowQty, 7, 30},
	)
	env = &Env{Base: b}
	if env.Active(instE, 30) {
		t.Error("instance negation form should be inactive (O1 has both)")
	}
	if env.Active(setE, 30) {
		t.Error("set negation form should be inactive")
	}

	// History 3: only the show change. Both forms active.
	b = hist(t, row{modShowQty, 7, 30})
	env = &Env{Base: b}
	if !env.Active(instE, 30) {
		t.Error("instance negation form should be active (vacuously)")
	}
	if !env.Active(setE, 30) {
		t.Error("set negation form should be active (vacuously)")
	}
}

// Section 3.2, instance precedence: two min-quantity changes on O1 at
// t1,t2 and a quantity change on O1 at t3.
func TestInstanceOrientedPrecedence(t *testing.T) {
	b := hist(t,
		row{modStockMin, 1, 10},
		row{modStockMin, 1, 20},
		row{modStockQty, 1, 30},
	)
	env := &Env{Base: b}
	e := PrecI(P(modStockMin), P(modStockQty))

	expectOTS(t, env, e, 5, 1, -5)
	expectOTS(t, env, e, 15, 1, -15)
	expectOTS(t, env, e, 25, 1, -25)
	expectOTS(t, env, e, 30, 1, 30)
	expectOTS(t, env, e, 99, 1, 30)
}

// Section 3.2's contrast between instance and set precedence inside a
// conjunction with modify(show.quantity).
func TestInstanceVsSetPrecedence(t *testing.T) {
	instE := Conj(P(modShowQty), PrecI(P(createStock), P(modStockQty)))
	setE := Conj(P(modShowQty), Prec(P(createStock), P(modStockQty)))

	// create on O1, later modify on O2: the set sequence holds, the
	// instance one does not.
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 2, 20},
		row{modShowQty, 7, 30},
	)
	env := &Env{Base: b}
	if env.Active(instE, 30) {
		t.Error("instance precedence must not hold across objects")
	}
	if !env.Active(setE, 30) {
		t.Error("set precedence should hold across objects")
	}

	// create on O1, later modify on O1: both hold.
	b = hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
		row{modShowQty, 7, 30},
	)
	env = &Env{Base: b}
	if !env.Active(instE, 30) || !env.Active(setE, 30) {
		t.Error("both precedence forms should hold on the same object")
	}
}

// The consumption window: with Since set past the first events, earlier
// occurrences are invisible to the calculus (consuming-mode semantics).
func TestConsumptionWindowExcludesOldEvents(t *testing.T) {
	b := hist(t,
		row{createStock, 1, 10},
		row{modStockQty, 1, 20},
	)
	fresh := &Env{Base: b, Since: 15} // R = (15, now]
	if fresh.Active(P(createStock), 30) {
		t.Error("create at t=10 must be invisible with Since=15")
	}
	if !fresh.Active(P(modStockQty), 30) {
		t.Error("modify at t=20 must be visible with Since=15")
	}
	// The conjunction over the window is incomplete.
	if fresh.Active(Conj(P(createStock), P(modStockQty)), 30) {
		t.Error("conjunction must not span the consumption boundary")
	}
	// Preserving mode (Since = Never) sees both.
	all := &Env{Base: b}
	if !all.Active(Conj(P(createStock), P(modStockQty)), 30) {
		t.Error("preserving window should see the whole pair")
	}
}

// ActiveFor reports whether the instance-oriented e is active for oid at
// time t over R.
func (env *Env) ActiveFor(e Expr, t clock.Time, oid types.OID) bool {
	return env.OTS(e, t, oid).Active()
}
