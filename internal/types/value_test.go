package types

import (
	"fmt"
	"testing"
	"testing/quick"

	"chimera/internal/clock"
)

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range []Kind{KindInt, KindFloat, KindString, KindBool, KindTime, KindOID} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v: got %v err %v", k, got, err)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
}

func TestValueAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 || v.AsFloat() != 42.0 {
		t.Error("Int accessor broken")
	}
	if v := Float(2.5); v.AsFloat() != 2.5 {
		t.Error("Float accessor broken")
	}
	if v := String_("hi"); v.AsString() != "hi" {
		t.Error("String accessor broken")
	}
	if v := Bool(true); !v.AsBool() {
		t.Error("Bool accessor broken")
	}
	if v := TimeVal(clock.Time(7)); v.AsTime() != 7 {
		t.Error("Time accessor broken")
	}
	if v := Ref(OID(3)); v.AsOID() != 3 {
		t.Error("Ref accessor broken")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull broken")
	}
}

func TestValueStrings(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "null"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{String_("a\"b"), `"a\"b"`},
		{Bool(false), "false"},
		{TimeVal(9), "t9"},
		{Ref(4), "o4"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	if OID(0).String() != "nil" {
		t.Error("NilOID should render as nil")
	}
}

func TestEqualNumericWidening(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("3 should equal 3.0")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("3 should not equal 3.5")
	}
	if Int(1).Equal(Bool(true)) {
		t.Error("int must not equal bool")
	}
	if !String_("x").Equal(String_("x")) {
		t.Error("string equality broken")
	}
}

func TestCompare(t *testing.T) {
	if c, err := Int(1).Compare(Float(2)); err != nil || c != -1 {
		t.Errorf("1 vs 2.0: %d %v", c, err)
	}
	if c, err := String_("b").Compare(String_("a")); err != nil || c != 1 {
		t.Errorf("b vs a: %d %v", c, err)
	}
	if c, err := TimeVal(4).Compare(TimeVal(4)); err != nil || c != 0 {
		t.Errorf("t4 vs t4: %d %v", c, err)
	}
	if _, err := Int(1).Compare(String_("1")); err == nil {
		t.Error("cross-kind comparison accepted")
	}
}

func TestAssignableAndConvert(t *testing.T) {
	if !Int(1).AssignableTo(KindFloat) {
		t.Error("int should widen to float")
	}
	if Float(1).AssignableTo(KindInt) {
		t.Error("float must not narrow to int")
	}
	if !Null.AssignableTo(KindString) {
		t.Error("null is assignable everywhere")
	}
	if String_("x").AssignableTo(KindInt) {
		t.Error("string must not be assignable to int")
	}
	v, err := Int(2).Convert(KindFloat)
	if err != nil || v.Kind() != KindFloat || v.AsFloat() != 2 {
		t.Errorf("Convert int->float: %v %v", v, err)
	}
	if _, err := String_("x").Convert(KindInt); err == nil {
		t.Error("string->int conversion accepted")
	}
}

// Convert coerces the value to kind k (currently only Int→Float widening
// beyond identity). It returns an error if the coercion is not allowed.
func (v Value) Convert(k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	if v.kind == KindInt && k == KindFloat {
		return Float(float64(v.i)), nil
	}
	return Null, fmt.Errorf("types: cannot convert %s to %s", v.kind, k)
}

// Compare is antisymmetric and consistent with Equal on integers,
// property-tested with testing/quick.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		c1, err1 := x.Compare(y)
		c2, err2 := y.Compare(x)
		if err1 != nil || err2 != nil {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
