// Package types implements the Chimera value system: the typed attribute
// values stored in objects, compared by conditions, and produced by
// actions.
//
// Chimera (Section 2 of the paper) is an object-oriented data model:
// objects have an identity (OID) and a set of typed attributes. The value
// kinds here are the ones the paper's examples use (integers, floats,
// strings, booleans, time stamps and object references); they are enough
// to express every class and rule the paper shows.
package types

import (
	"fmt"
	"strconv"

	"chimera/internal/clock"
)

// OID identifies an object in the store. OIDs are allocated densely
// starting at 1; 0 is "no object" (NilOID).
type OID int64

// NilOID is the absent object reference.
const NilOID OID = 0

// String renders an OID the way the paper's Figure 3 does (o1, o2, ...).
func (o OID) String() string {
	if o == NilOID {
		return "nil"
	}
	return "o" + strconv.FormatInt(int64(o), 10)
}

// Kind enumerates the value kinds of the Chimera type system.
type Kind int

const (
	// KindNull is the kind of the absent value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
	// KindString is an immutable string.
	KindString
	// KindBool is a boolean.
	KindBool
	// KindTime is a logical time stamp (the type of the T variable bound
	// by the paper's at() event formula).
	KindTime
	// KindOID is an object reference.
	KindOID
)

var kindNames = [...]string{
	KindNull:   "null",
	KindInt:    "integer",
	KindFloat:  "float",
	KindString: "string",
	KindBool:   "boolean",
	KindTime:   "time",
	KindOID:    "oid",
}

// String returns the Chimera name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind maps a Chimera type name to its Kind.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name && n != "" {
			return Kind(k), nil
		}
	}
	return KindNull, fmt.Errorf("types: unknown type name %q", name)
}

// Value is a dynamically typed Chimera value. The zero Value is Null.
type Value struct {
	kind Kind
	i    int64   // Int, Bool (0/1), Time, OID
	f    float64 // Float
	s    string  // String
}

// Null is the absent value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a string value. (Named with a trailing underscore to
// leave Value.String free for fmt.Stringer.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// TimeVal returns a time-stamp value.
func TimeVal(t clock.Time) Value { return Value{kind: KindTime, i: int64(t)} }

// Ref returns an object-reference value.
func Ref(o OID) Value { return Value{kind: KindOID, i: int64(o)} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is absent.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it is valid only for KindInt.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the float payload. Integers widen implicitly, matching
// Chimera's numeric comparisons.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload; valid only for KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean payload; valid only for KindBool.
func (v Value) AsBool() bool { return v.i != 0 }

// AsTime returns the time payload; valid only for KindTime.
func (v Value) AsTime() clock.Time { return clock.Time(v.i) }

// AsOID returns the reference payload; valid only for KindOID.
func (v Value) AsOID() OID { return OID(v.i) }

// IsNumeric reports whether the value participates in numeric comparison.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String implements fmt.Stringer with Chimera literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return "t" + strconv.FormatInt(v.i, 10)
	case KindOID:
		return OID(v.i).String()
	}
	return "?"
}

// Equal reports deep value equality. Int and Float compare numerically
// (3 == 3.0), as Chimera conditions expect.
func (v Value) Equal(w Value) bool {
	if v.IsNumeric() && w.IsNumeric() {
		return v.AsFloat() == w.AsFloat()
	}
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == w.s
	default:
		return v.i == w.i && v.f == w.f
	}
}

// Compare orders two values: -1 if v < w, 0 if equal, +1 if v > w. It
// returns an error when the kinds are not mutually comparable.
func (v Value) Compare(w Value) (int, error) {
	switch {
	case v.IsNumeric() && w.IsNumeric():
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	case v.kind == KindString && w.kind == KindString:
		switch {
		case v.s < w.s:
			return -1, nil
		case v.s > w.s:
			return 1, nil
		}
		return 0, nil
	case v.kind == KindTime && w.kind == KindTime,
		v.kind == KindOID && w.kind == KindOID,
		v.kind == KindBool && w.kind == KindBool:
		switch {
		case v.i < w.i:
			return -1, nil
		case v.i > w.i:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("types: cannot compare %s with %s", v.kind, w.kind)
}

// AssignableTo reports whether the value may be stored in an attribute of
// kind k. Null is assignable everywhere; Int widens to Float.
func (v Value) AssignableTo(k Kind) bool {
	if v.kind == KindNull {
		return true
	}
	if v.kind == k {
		return true
	}
	return v.kind == KindInt && k == KindFloat
}
