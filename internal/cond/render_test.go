package cond

import (
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/event"
	"chimera/internal/types"
)

// The String renderings are load-bearing: storage persists rules as
// source, so every atom and term must render to parseable syntax.
func TestAtomAndTermRendering(t *testing.T) {
	e := calculus.PrecI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	cases := []struct {
		got  string
		want string
	}{
		{Const{V: types.Int(7)}.String(), "7"},
		{Const{V: types.String_("x")}.String(), `"x"`},
		{Var{Name: "T"}.String(), "T"},
		{Attr{Var: "S", Attr: "quantity"}.String(), "S.quantity"},
		{Arith{Op: OpAdd, L: Var{"a"}, R: Const{types.Int(1)}}.String(), "(a + 1)"},
		{Arith{Op: OpDiv, L: Attr{"S", "n"}, R: Const{types.Int(2)}}.String(), "(S.n / 2)"},
		{Class{Class: "stock", Var: "S"}.String(), "stock(S)"},
		{Occurred{Event: e, Var: "X"}.String(),
			"occurred(create(stock) <= modify(stock.quantity), X)"},
		{At{Event: e, Var: "X", TimeVar: "T"}.String(),
			"at(create(stock) <= modify(stock.quantity), X, T)"},
		{Holds{Event: event.Create("stock"), Var: "X"}.String(),
			"holds(create(stock), X)"},
		{Compare{L: Attr{"S", "n"}, Op: CmpGe, R: Const{types.Int(0)}}.String(),
			"S.n >= 0"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String = %q, want %q", c.got, c.want)
		}
	}
}

func TestVarTermEval(t *testing.T) {
	ctx := &Ctx{}
	ctx.Seed("T", nil) // the slot table {T}
	v, err := Var{Name: "T"}.Eval(ctx, Binding{types.TimeVal(9)})
	if err != nil || v.AsTime() != 9 {
		t.Fatalf("Var eval = %v, %v", v, err)
	}
	if _, err := (Var{Name: "T"}).Eval(ctx, Binding{types.Null}); err == nil {
		t.Fatal("unbound Var accepted")
	}
	if _, err := (Var{Name: "Z"}).Eval(ctx, Binding{types.TimeVal(9)}); err == nil {
		t.Fatal("Var outside the slot table accepted")
	}
}

func TestCompareAllOperators(t *testing.T) {
	one, two := types.Int(1), types.Int(2)
	cases := []struct {
		op   CmpOp
		l, r types.Value
		want bool
	}{
		{CmpEq, one, one, true}, {CmpEq, one, two, false},
		{CmpNe, one, two, true}, {CmpNe, one, one, false},
		{CmpLt, one, two, true}, {CmpLt, two, one, false},
		{CmpLe, one, one, true}, {CmpLe, two, one, false},
		{CmpGt, two, one, true}, {CmpGt, one, two, false},
		{CmpGe, one, one, true}, {CmpGe, one, two, false},
	}
	for _, c := range cases {
		got, err := compare(c.l, c.op, c.r)
		if err != nil || got != c.want {
			t.Errorf("compare(%s %s %s) = %v, %v", c.l, c.op, c.r, got, err)
		}
	}
	if _, err := compare(one, CmpOp("~"), two); err == nil {
		t.Error("unknown operator accepted")
	}
	if _, err := compare(types.String_("x"), CmpLt, one); err == nil {
		t.Error("cross-kind ordering accepted")
	}
}

func TestArithMixedAndErrors(t *testing.T) {
	ctx := &Ctx{}
	// Int op Float widens.
	v, err := Arith{Op: OpMul, L: Const{types.Int(3)}, R: Const{types.Float(0.5)}}.Eval(ctx, Binding{})
	if err != nil || v.AsFloat() != 1.5 {
		t.Fatalf("mixed arith = %v, %v", v, err)
	}
	// Int/Int stays integral for +,-,*.
	v, _ = Arith{Op: OpSub, L: Const{types.Int(5)}, R: Const{types.Int(2)}}.Eval(ctx, Binding{})
	if v.Kind() != types.KindInt || v.AsInt() != 3 {
		t.Fatalf("int arith = %v", v)
	}
	// Division always floats.
	v, _ = Arith{Op: OpDiv, L: Const{types.Int(5)}, R: Const{types.Int(2)}}.Eval(ctx, Binding{})
	if v.Kind() != types.KindFloat || v.AsFloat() != 2.5 {
		t.Fatalf("division = %v", v)
	}
	if _, err := (Arith{Op: OpAdd, L: Const{types.String_("a")}, R: Const{types.Int(1)}}).Eval(ctx, Binding{}); err == nil {
		t.Error("string arithmetic accepted")
	}
	if _, err := (Arith{Op: ArithOp('%'), L: Const{types.Int(1)}, R: Const{types.Int(1)}}).Eval(ctx, Binding{}); err == nil {
		t.Error("unknown arith op accepted")
	}
}
