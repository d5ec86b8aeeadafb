package cond

import (
	"strings"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// fixture builds a store with two stock objects and an event history:
// o1 created (t1) and modified (t3), o2 created (t2), o2's quantity
// modified twice (t4, t5).
func fixture(t *testing.T) (*Ctx, types.OID, types.OID) {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	ln := st.BeginLine(object.LineOptions{Solo: true})
	defer ln.Commit()
	o1, err := ln.Create("stock", map[string]types.Value{
		"name": types.String_("bolts"), "quantity": types.Int(50), "maxquantity": types.Int(40)})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := ln.Create("stock", map[string]types.Value{
		"name": types.String_("nuts"), "quantity": types.Int(5), "maxquantity": types.Int(40)})
	if err != nil {
		t.Fatal(err)
	}
	return &Ctx{Store: st, Base: history(t, o1, o2), Since: clock.Never, At: 10}, o1, o2
}

// fixtureTypes is the type registry of the fixture's database, which
// every transaction's Event Base shares.
var fixtureTypes event.Registry

// history is the fixture's Event Base, as each transaction that replays
// the fixture's events logs it afresh.
func history(t *testing.T, o1, o2 types.OID) *event.Base {
	t.Helper()
	b := fixtureTypes.NewBase(0)
	mustAppend := func(ty event.Type, oid types.OID, at clock.Time) {
		if _, err := b.Append(ty, oid, at); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(event.Create("stock"), o1, 1)
	mustAppend(event.Create("stock"), o2, 2)
	mustAppend(event.Modify("stock", "quantity"), o1, 3)
	mustAppend(event.Modify("stock", "quantity"), o2, 4)
	mustAppend(event.Modify("stock", "quantity"), o2, 5)
	return b
}

// one is the formula of a single atom.
func one(a Atom) Formula { return Formula{Atoms: []Atom{a}} }

// rules is the condition plan of the tests' formulas, one for all of
// them as an engine's is for its rule set.
var rules = calculus.NewPlan()

// compile interns f's event formulas into rules, as a rule definition
// does.
func compile(f Formula) Formula {
	f, err := f.Intern(rules)
	if err != nil {
		panic(err)
	}
	return f
}

// oidsOf lists the objects the rows bind v to.
func oidsOf(ctx *Ctx, rows []Binding, v string) []types.OID {
	var out []types.OID
	for _, row := range rows {
		out = append(out, row[ctx.Slot(v)].AsOID())
	}
	return out
}

func TestClassAtomBindsAndChecks(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	out, err := one(Class{Class: "stock", Var: "S"}).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := oidsOf(ctx, out, "S"); len(got) != 2 || got[0] != o1 || got[1] != o2 {
		t.Fatalf("bindings = %v", out)
	}
	// Already bound: membership check.
	out, err = Class{Class: "stock", Var: "S"}.Eval(ctx, ctx.Seed("S", []types.OID{o1}))
	if err != nil || len(out) != 1 {
		t.Fatalf("membership check failed: %v %v", out, err)
	}
	if _, err := one(Class{Class: "ghost", Var: "S"}).Eval(ctx); err == nil {
		t.Fatal("unknown class accepted")
	}
	// On its own an atom can only bind a column its rows have.
	if _, err := (Class{Class: "stock", Var: "Z"}).Eval(ctx, ctx.Seed("S", []types.OID{o1})); err == nil {
		t.Fatal("a variable without a column was bound")
	}
}

func TestOccurredBindsAffectedObjects(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	// occurred(create += modify(quantity), S): both objects qualify.
	e := calculus.ConjI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	f := compile(one(Occurred{Event: e, Var: "S"}))
	out, err := f.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("bindings = %v", out)
	}
	// With a consumption window starting after o1's events, only o2.
	ctx2 := *ctx
	ctx2.Since = 3
	out, err = f.Eval(&ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		// o2's create (t2) is also outside the window, so the instance
		// conjunction is incomplete for o2 as well.
		t.Fatalf("windowed bindings = %v, want none", out)
	}
	_ = o1
	_ = o2
}

func TestOccurredFiltersBoundVariable(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	e := calculus.P(event.Modify("stock", "quantity"))
	in := ctx.Seed("S", []types.OID{o1, o2})
	out, err := compile(one(Occurred{Event: e, Var: "S"})).Atoms[0].Eval(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("both objects were modified; bindings = %v", out)
	}
}

// Section 3.3's at() example: create followed by two updates yields the
// two update instants.
func TestAtBindsTimestamps(t *testing.T) {
	ctx, _, o2 := fixture(t)
	e := calculus.PrecI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	out, err := compile(one(At{Event: e, Var: "X", TimeVar: "T"})).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// o1: one update instant (t3); o2: two (t4, t5).
	var o2Times []clock.Time
	for _, row := range out {
		if row[ctx.Slot("X")].AsOID() == o2 {
			o2Times = append(o2Times, row[ctx.Slot("T")].AsTime())
		}
	}
	if len(out) != 3 || len(o2Times) != 2 || o2Times[0] != 4 || o2Times[1] != 5 {
		t.Fatalf("at bindings = %v", out)
	}
}

func TestCompareAndTerms(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	// A filter compacts its input in place: every use seeds afresh.
	in := func() []Binding { return ctx.Seed("S", []types.OID{o1, o2}) }
	// S.quantity > S.maxquantity keeps only o1 (50 > 40).
	out, err := Compare{
		L:  Attr{Var: "S", Attr: "quantity"},
		Op: CmpGt,
		R:  Attr{Var: "S", Attr: "maxquantity"},
	}.Eval(ctx, in())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].AsOID() != o1 {
		t.Fatalf("compare bindings = %v", out)
	}
	// Arithmetic: S.quantity - 10 > S.maxquantity drops both.
	out, err = Compare{
		L:  Arith{Op: OpSub, L: Attr{Var: "S", Attr: "quantity"}, R: Const{V: types.Int(20)}},
		Op: CmpGt,
		R:  Attr{Var: "S", Attr: "maxquantity"},
	}.Eval(ctx, in())
	if err != nil || len(out) != 0 {
		t.Fatalf("arith compare = %v, %v", out, err)
	}
	// Errors.
	if _, err := (Compare{L: Attr{Var: "Z", Attr: "quantity"}, Op: CmpGt, R: Const{V: types.Int(0)}}).Eval(ctx, in()); err == nil {
		t.Fatal("unbound variable accepted")
	}
	if _, err := (Compare{L: Attr{Var: "S", Attr: "name"}, Op: CmpGt, R: Const{V: types.Int(0)}}).Eval(ctx, in()); err == nil {
		t.Fatal("string/int comparison accepted")
	}
	if _, err := (Arith{Op: OpDiv, L: Const{V: types.Int(1)}, R: Const{V: types.Int(0)}}).Eval(ctx, Binding{}); err == nil {
		t.Fatal("division by zero accepted")
	}
}

func TestFormulaConjunction(t *testing.T) {
	ctx, o1, _ := fixture(t)
	f := compile(Formula{Atoms: []Atom{
		Class{Class: "stock", Var: "S"},
		Occurred{Event: calculus.P(event.Create("stock")), Var: "S"},
		Compare{L: Attr{Var: "S", Attr: "quantity"}, Op: CmpGt, R: Attr{Var: "S", Attr: "maxquantity"}},
	}})
	out, err := f.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := oidsOf(ctx, out, "S"); len(got) != 1 || got[0] != o1 {
		t.Fatalf("formula bindings = %v", out)
	}
	if got := f.String(); got != "stock(S), occurred(create(stock), S), S.quantity > S.maxquantity" {
		t.Errorf("String = %q", got)
	}
	// Short circuit: an impossible atom first yields nil quickly.
	f2 := Formula{Atoms: []Atom{
		Compare{L: Const{V: types.Int(1)}, Op: CmpGt, R: Const{V: types.Int(2)}},
		Class{Class: "ghost", Var: "S"}, // would error if reached
	}}
	out, err = f2.Eval(ctx)
	if err != nil || out != nil {
		t.Fatalf("short circuit failed: %v %v", out, err)
	}
	// The empty condition is true with one empty binding.
	out, err = Formula{}.Eval(ctx)
	if err != nil || len(out) != 1 {
		t.Fatalf("empty condition = %v %v", out, err)
	}
}

func TestAttrOnDeletedObjectErrors(t *testing.T) {
	ctx, o1, _ := fixture(t)
	ln := ctx.Store.(*object.Store).BeginLine(object.LineOptions{Solo: true})
	ln.Delete(o1)
	ln.Commit()
	_, err := Compare{
		L: Attr{Var: "S", Attr: "quantity"}, Op: CmpGt, R: Const{V: types.Int(0)},
	}.Eval(ctx, ctx.Seed("S", []types.OID{o1}))
	if err == nil {
		t.Fatal("attribute of deleted object accepted")
	}
	// But the class atom filters deleted objects silently.
	out, err := Class{Class: "stock", Var: "S"}.Eval(ctx, ctx.Seed("S", []types.OID{o1}))
	if err != nil || len(out) != 0 {
		t.Fatalf("class atom on deleted object: %v %v", out, err)
	}
}

// A consideration runs in the Ctx's row buffers: once one evaluation has
// grown them, a rule without a condition, one that binds the objects of
// an event formula, one whose class atom enumerates a window and one that
// binds at() pairs all allocate nothing. Nor do the event formulas when
// the Ctx outlives the transaction: against the Event Base of a new one,
// a warm Ctx allocates nothing either.
func TestEvalSeedAllocatesNothing(t *testing.T) {
	ctx, o1, o2 := fixture(t)
	if n := testing.AllocsPerRun(100, func() {
		if out, err := (Formula{}).Eval(ctx); err != nil || len(out) != 1 || len(out[0]) != 0 {
			t.Fatalf("empty condition = %v %v", out, err)
		}
	}); n != 0 {
		t.Errorf("empty condition Eval: %v allocs, want 0", n)
	}
	cardCtx, _ := cards(t, 64)
	prec := calculus.PrecI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	occurred := compile(one(Occurred{Event: calculus.P(event.Create("stock")), Var: "S"}))
	at := compile(one(At{Event: prec, Var: "X", TimeVar: "T"}))
	for _, c := range []struct {
		name string
		ctx  *Ctx
		f    Formula
		rows int
	}{
		// occurred binds S to the two created objects.
		{"occurred", ctx, occurred, 2},
		// card(C) enumerates occurred's window of eight cards, and the
		// comparison keeps the three past their limit.
		{"class", cardCtx, overlimit, 3},
		// at binds (o1, t3), (o2, t4) and (o2, t5).
		{"at", ctx, at, 3},
	} {
		eval := func() {
			if out, err := c.f.Eval(c.ctx); err != nil || len(out) != c.rows {
				t.Fatalf("%s = %v %v, want %d rows", c.f, out, err, c.rows)
			}
		}
		eval()
		if n := testing.AllocsPerRun(100, eval); n != 0 {
			t.Errorf("%s: %v allocs after a warm-up evaluation, want 0", c.name, n)
		}
	}

	const runs = 50
	bases := make([]*event.Base, runs+1) // AllocsPerRun warms up with one run
	for i := range bases {
		bases[i] = history(t, o1, o2)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		ctx.Base = bases[next]
		next++
		for _, f := range []Formula{occurred, at} {
			if out, err := f.Eval(ctx); err != nil || len(out) == 0 {
				t.Fatalf("%s over a new transaction's base = %v %v", f, out, err)
			}
		}
	}); n != 0 {
		t.Errorf("occurred and at over a new transaction's base: %v allocs, want 0", n)
	}
}

// An event formula registers the types it mentions in the base's
// registry when its evaluator first resolves them, so a type whose first
// occurrence is logged after the formula first ran is found under the
// id resolved then.
func TestEventAtomRegistersItsTypes(t *testing.T) {
	ctx, o1, _ := fixture(t)
	f := compile(one(Occurred{Event: calculus.P(event.Delete("stock")), Var: "S"}))
	if out, err := f.Eval(ctx); err != nil || len(out) != 0 {
		t.Fatalf("before any delete: %v %v", out, err)
	}
	if _, err := ctx.Base.Append(event.Delete("stock"), o1, 6); err != nil {
		t.Fatal(err)
	}
	if out, err := f.Eval(ctx); err != nil || len(oidsOf(ctx, out, "S")) != 1 || oidsOf(ctx, out, "S")[0] != o1 {
		t.Fatalf("after o1's delete: %v %v, want o1", out, err)
	}
}

// An event formula is evaluable only once interned. Formula.Intern
// validates and interns every occurred and at atom into the plan, leaves
// the formula it was given as it was, and rejects an invalid expression
// with calculus.Valid's error, interning nothing; Release gives back what
// it took.
func TestInternValidatesAndReleases(t *testing.T) {
	ctx, _, _ := fixture(t)
	occ := Occurred{Event: calculus.P(event.Create("stock")), Var: "S"}
	if _, err := one(occ).Eval(ctx); err == nil || !strings.Contains(err.Error(), "not interned") {
		t.Fatalf("an event formula never interned = %v, want an error", err)
	}
	plan := calculus.NewPlan()
	bad := calculus.NegI(calculus.Conj(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity"))))
	invalid := Formula{Atoms: []Atom{occ, At{Event: bad, Var: "S", TimeVar: "T"}}}
	if _, err := invalid.Intern(plan); err == nil || !strings.Contains(err.Error(), calculus.Valid(bad).Error()) {
		t.Fatalf("Intern(%s) = %v, want %v", invalid, err, calculus.Valid(bad))
	}
	if plan.Live() != 0 {
		t.Fatalf("a rejected formula left %d nodes in the plan", plan.Live())
	}
	prec := calculus.PrecI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	f := Formula{Atoms: []Atom{occ, At{Event: prec, Var: "S", TimeVar: "T"}}}
	g, err := f.Intern(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := g.Eval(ctx); err != nil || len(out) != 3 {
		t.Fatalf("%s = %v %v, want 3 rows", g, out, err)
	}
	if _, err := f.Eval(ctx); err == nil {
		t.Fatal("Intern changed the formula it was given")
	}
	g.Release()
	if plan.Live() != 0 {
		t.Fatalf("Release left %d nodes in the plan", plan.Live())
	}
}
