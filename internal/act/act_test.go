package act

import (
	"fmt"
	"slices"
	"testing"

	"chimera/internal/cond"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// recorder is a Mutator that applies to a store through a solo line and
// records the call sequence.
type recorder struct {
	line  *object.Line
	calls []string
}

func (r *recorder) Create(class string, vals map[string]types.Value) (types.OID, error) {
	oid, err := r.line.Create(class, vals)
	r.calls = append(r.calls, fmt.Sprintf("create %s -> %s", class, oid))
	return oid, err
}
func (r *recorder) Modify(oid types.OID, attr string, v types.Value) error {
	r.calls = append(r.calls, fmt.Sprintf("modify %s.%s = %s", oid, attr, v))
	return r.line.Modify(oid, attr, v)
}
func (r *recorder) Delete(oid types.OID) error {
	r.calls = append(r.calls, fmt.Sprintf("delete %s", oid))
	return r.line.Delete(oid)
}
func (r *recorder) Specialize(oid types.OID, sub string) error {
	r.calls = append(r.calls, fmt.Sprintf("specialize %s -> %s", oid, sub))
	return r.line.Specialize(oid, sub)
}
func (r *recorder) Generalize(oid types.OID, super string) error {
	r.calls = append(r.calls, fmt.Sprintf("generalize %s -> %s", oid, super))
	return r.line.Generalize(oid, super)
}

func fixture(t *testing.T) (*cond.Ctx, *recorder, types.OID, types.OID) {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Define("order",
		schema.Attribute{Name: "item", Kind: types.KindString}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineSub("bigOrder", "order"); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	ln := st.BeginLine(object.LineOptions{Solo: true})
	o1, _ := ln.Create("stock", map[string]types.Value{
		"quantity": types.Int(90), "maxquantity": types.Int(40)})
	o2, _ := ln.Create("stock", map[string]types.Value{
		"quantity": types.Int(80), "maxquantity": types.Int(30)})
	return &cond.Ctx{Store: st}, &recorder{line: ln}, o1, o2
}

// bindingsFor seeds ctx with one row per object, binding S to it.
func bindingsFor(ctx *cond.Ctx, oids ...types.OID) []cond.Binding {
	return ctx.Seed("S", oids)
}

// nonObject seeds ctx's slot table with v and returns one row binding v
// to an integer.
func nonObject(ctx *cond.Ctx, v string) []cond.Binding {
	ctx.Seed(v, nil)
	return []cond.Binding{{types.Int(3)}}
}

func TestModifySetOriented(t *testing.T) {
	ctx, m, o1, o2 := fixture(t)
	stmt := Modify{Class: "stock", Attr: "quantity", Var: "S",
		Value: cond.Attr{Var: "S", Attr: "maxquantity"}}
	if err := stmt.Exec(ctx, m, bindingsFor(ctx, o1, o2)); err != nil {
		t.Fatal(err)
	}
	for i, oid := range []types.OID{o1, o2} {
		o, _ := ctx.Store.Get(oid)
		want := []int64{40, 30}[i]
		if got := o.MustGet("quantity").AsInt(); got != want {
			t.Errorf("object %s quantity = %d, want %d", oid, got, want)
		}
	}
	if len(m.calls) != 2 {
		t.Errorf("calls = %v", m.calls)
	}
}

func TestCreatePerBindingAndOnce(t *testing.T) {
	ctx, m, o1, o2 := fixture(t)
	per := Create{Class: "order", Vals: map[string]cond.Term{
		"item": cond.Const{V: types.String_("restock")}}}
	if err := per.Exec(ctx, m, bindingsFor(ctx, o1, o2)); err != nil {
		t.Fatal(err)
	}
	got, _ := ctx.Store.Select("order")
	if len(got) != 2 {
		t.Fatalf("per-binding create made %d orders", len(got))
	}
	once := Create{Class: "order", Once: true, Vals: map[string]cond.Term{}}
	if err := once.Exec(ctx, m, bindingsFor(ctx, o1, o2)); err != nil {
		t.Fatal(err)
	}
	got, _ = ctx.Store.Select("order")
	if len(got) != 3 {
		t.Fatalf("Once create made %d total orders, want 3", len(got))
	}
}

func TestDeleteDedupes(t *testing.T) {
	ctx, m, o1, _ := fixture(t)
	// The same object appears in two bindings; delete must not fail on
	// the second.
	stmt := Delete{Var: "S"}
	if err := stmt.Exec(ctx, m, bindingsFor(ctx, o1, o1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Store.Get(o1); ok {
		t.Fatal("object survived delete")
	}
	if len(m.calls) != 1 {
		t.Errorf("delete called %d times, want 1", len(m.calls))
	}
	// A repeat after the objects stopped ascending.
	ctx, m, o1, o2 := fixture(t)
	if err := stmt.Exec(ctx, m, bindingsFor(ctx, o2, o1, o2, o1)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"delete o2", "delete o1"}; !slices.Equal(m.calls, want) {
		t.Errorf("calls = %v, want %v", m.calls, want)
	}
}

func TestSpecializeGeneralizeStatements(t *testing.T) {
	ctx, m, _, _ := fixture(t)
	oid, _ := m.line.Create("order", map[string]types.Value{"item": types.String_("x")})
	if err := (Specialize{Var: "O", To: "bigOrder"}).Exec(ctx, m, ctx.Seed("O", []types.OID{oid})); err != nil {
		t.Fatal(err)
	}
	o, _ := ctx.Store.Get(oid)
	if o.Class().Name() != "bigOrder" {
		t.Fatal("specialize statement failed")
	}
	if err := (Generalize{Var: "O", To: "order"}).Exec(ctx, m, ctx.Seed("O", []types.OID{oid})); err != nil {
		t.Fatal(err)
	}
	if o.Class().Name() != "order" {
		t.Fatal("generalize statement failed")
	}
}

func TestStatementErrors(t *testing.T) {
	ctx, m, o1, _ := fixture(t)
	if err := (Modify{Class: "stock", Attr: "quantity", Var: "Z",
		Value: cond.Const{V: types.Int(1)}}).Exec(ctx, m, bindingsFor(ctx, o1)); err == nil {
		t.Fatal("unbound variable accepted")
	}
	if err := (Modify{Class: "stock", Attr: "quantity", Var: "S",
		Value: cond.Attr{Var: "S", Attr: "ghost"}}).Exec(ctx, m, bindingsFor(ctx, o1)); err == nil {
		t.Fatal("unknown attribute term accepted")
	}
	if err := (Delete{Var: "S"}).Exec(ctx, m, nonObject(ctx, "S")); err == nil {
		t.Fatal("non-object variable accepted")
	}
	bad := Action{Statements: []Statement{
		Modify{Class: "stock", Attr: "quantity", Var: "S", Value: cond.Const{V: types.String_("x")}},
	}}
	if err := bad.Exec(ctx, m, bindingsFor(ctx, o1)); err == nil {
		t.Fatal("ill-typed modify accepted")
	}
}

func TestActionSequenceAndString(t *testing.T) {
	ctx, m, o1, _ := fixture(t)
	a := Action{Statements: []Statement{
		Modify{Class: "stock", Attr: "quantity", Var: "S", Value: cond.Const{V: types.Int(0)}},
		Delete{Var: "S"},
	}}
	if err := a.Exec(ctx, m, bindingsFor(ctx, o1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Store.Get(o1); ok {
		t.Fatal("sequence did not delete")
	}
	if got := a.String(); got != "modify(stock.quantity, S, 0); delete(S)" {
		t.Errorf("String = %q", got)
	}
}

func TestStatementRendering(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Create{Class: "log", Vals: map[string]cond.Term{
			"b": cond.Const{V: types.Int(2)}, "a": cond.Const{V: types.Int(1)},
		}}.String(), "create(log, a = 1, b = 2)"},
		{Modify{Class: "stock", Attr: "quantity", Var: "S",
			Value: cond.Attr{Var: "S", Attr: "maxquantity"}}.String(),
			"modify(stock.quantity, S, S.maxquantity)"},
		{Delete{Var: "S"}.String(), "delete(S)"},
		{Specialize{Var: "O", To: "bigOrder"}.String(), "specialize(O, bigOrder)"},
		{Generalize{Var: "O", To: "order"}.String(), "generalize(O, order)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String = %q, want %q", c.got, c.want)
		}
	}
}

func TestMigrateErrors(t *testing.T) {
	ctx, m, _, _ := fixture(t)
	if err := (Specialize{Var: "Z", To: "bigOrder"}).Exec(ctx, m, bindingsFor(ctx, 1)); err == nil {
		t.Error("unbound specialize accepted")
	}
	if err := (Generalize{Var: "O", To: "order"}).Exec(ctx, m, nonObject(ctx, "O")); err == nil {
		t.Error("non-object generalize accepted")
	}
}

// discard is a Mutator that does nothing.
type discard struct{}

func (discard) Create(string, map[string]types.Value) (types.OID, error) { return 1, nil }
func (discard) Modify(types.OID, string, types.Value) error              { return nil }
func (discard) Delete(types.OID) error                                   { return nil }
func (discard) Specialize(types.OID, string) error                       { return nil }
func (discard) Generalize(types.OID, string) error                       { return nil }

// A statement allocates nothing per binding: Create shares one value map
// across its bindings, and the once-per-object statements dedupe through
// the Ctx's scratch set.
func TestExecAllocatesNothingPerBinding(t *testing.T) {
	ctx, _, o1, o2 := fixture(t)
	many := make([]types.OID, 64)
	for i := range many {
		many[i] = []types.OID{o1, o2}[i%2]
	}
	for _, c := range []struct {
		stmt  Statement
		fixed float64 // allocations per execution, whatever the bindings
	}{
		{Create{Class: "order", Vals: map[string]cond.Term{"item": cond.Const{V: types.String_("x")}}}, -1},
		{Modify{Class: "stock", Attr: "quantity", Var: "S", Value: cond.Attr{Var: "S", Attr: "maxquantity"}}, 0},
		{Delete{Var: "S"}, 0},
		{Specialize{Var: "S", To: "bigOrder"}, 0},
	} {
		allocs := func(oids []types.OID) float64 {
			rows := bindingsFor(ctx, oids...)
			return testing.AllocsPerRun(20, func() {
				if err := c.stmt.Exec(ctx, discard{}, rows); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, all := allocs(many[:1]), allocs(many)
		if one != all || (c.fixed >= 0 && all != c.fixed) {
			t.Errorf("%s: %v allocs over 1 binding, %v over %d", c.stmt, one, all, len(many))
		}
	}
}
