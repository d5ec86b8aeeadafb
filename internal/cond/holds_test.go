package cond

import (
	"testing"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// holdsFixture: o1 created+modified (net create), o2 created+deleted
// (net nothing), o3 modified twice (net modify), o4 modified+deleted
// (net delete).
func holdsFixture(t *testing.T) *Ctx {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	b := event.NewBase()
	app := func(ty event.Type, oid types.OID, at clock.Time) {
		t.Helper()
		if _, err := b.Append(ty, oid, at); err != nil {
			t.Fatal(err)
		}
	}
	app(event.Create("stock"), 1, 1)
	app(event.Modify("stock", "quantity"), 1, 2)
	app(event.Create("stock"), 2, 3)
	app(event.Delete("stock"), 2, 4)
	app(event.Modify("stock", "quantity"), 3, 5)
	app(event.Modify("stock", "quantity"), 3, 6)
	app(event.Modify("stock", "quantity"), 4, 7)
	app(event.Delete("stock"), 4, 8)
	return &Ctx{Store: st, Base: b, Since: clock.Never, At: 10}
}

func TestHoldsNetEffect(t *testing.T) {
	ctx := holdsFixture(t)

	// holds(create(stock), X): only o1 (o2 was created then deleted).
	out, err := one(Holds{Event: event.Create("stock"), Var: "X"}).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := oidsOf(ctx, out, "X"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("holds(create) = %v, want [o1]", got)
	}

	// holds(delete(stock), X): only o4 (pre-existing, modified, deleted).
	out, err = one(Holds{Event: event.Delete("stock"), Var: "X"}).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := oidsOf(ctx, out, "X"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("holds(delete) = %v, want [o4]", got)
	}

	// holds(modify(stock.quantity), X): only o3 (o1's modify folds into
	// its creation; o4's into its deletion).
	out, err = one(Holds{Event: event.Modify("stock", "quantity"), Var: "X"}).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := oidsOf(ctx, out, "X"); len(got) != 1 || got[0] != 3 {
		t.Fatalf("holds(modify) = %v, want [o3]", got)
	}
}

func TestHoldsBoundVariableFilters(t *testing.T) {
	ctx := holdsFixture(t)
	in := ctx.Seed("X", []types.OID{1, 2})
	out, err := Holds{Event: event.Create("stock"), Var: "X"}.Eval(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if got := oidsOf(ctx, out, "X"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("filtered holds = %v", got)
	}
}

func TestHoldsWindowRespected(t *testing.T) {
	ctx := holdsFixture(t)
	// Window (2, 10]: o1's create falls outside, so o1's net effect in
	// the window is a bare modify... no: o1's modify is at t2, also
	// outside. Use (1, 10]: create at t1 excluded, modify at t2 included
	// → o1 nets to modify.
	ctx.Since = 1
	out, err := one(Holds{Event: event.Modify("stock", "quantity"), Var: "X"}).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := oidsOf(ctx, out, "X")
	want := map[types.OID]bool{1: true, 3: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("windowed holds(modify) = %v, want {o1,o3}", got)
	}
}

func TestHoldsRejectsNonNetOps(t *testing.T) {
	ctx := holdsFixture(t)
	if _, err := one(Holds{Event: event.T(event.OpSelect, "stock"), Var: "X"}).Eval(ctx); err == nil {
		t.Fatal("holds(select) accepted")
	}
}

func TestNetEffectsTable(t *testing.T) {
	ctx := holdsFixture(t)
	nets := NetEffects(ctx, "stock")
	want := map[types.OID]NetKind{1: NetCreate, 2: NetNone, 3: NetModify, 4: NetDelete}
	if len(nets) != len(want) {
		t.Fatalf("nets = %v", nets)
	}
	for oid, k := range want {
		if nets[oid] != k {
			t.Errorf("net(%s) = %v, want %v", oid, nets[oid], k)
		}
	}
}
