// Package calculus implements the composite-event calculus that is the
// paper's primary contribution: event expressions built from primitive
// event types with conjunction, disjunction, negation and precedence, each
// in a set-oriented and an instance-oriented variant (Figure 1), together
// with the integer-valued ts/ots semantics of Section 4, the rule
// triggering predicate, the algebraic law layer, and the static
// optimization of Section 5.1 (Δ-variation sets).
package calculus

import (
	"fmt"
	"slices"
	"strings"

	"chimera/internal/event"
)

// Expr is a composite event expression. The four concrete node kinds are
// Prim, Not, And, Or and Seq; operators carry an Inst flag selecting the
// instance-oriented variant (which binds tighter and must not be applied
// to set-oriented subexpressions — see Valid).
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Prim is a primitive event type, e.g. create(stock) or
// modify(stock.quantity). At the set level it is active as soon as any
// occurrence of the type exists in the relevant portion of the Event
// Base; at the instance level it is active per affected object.
type Prim struct {
	T event.Type
}

// Not is negation: -E (set) or -=E (instance). It is active exactly when
// its component is not, with the current time as activation time stamp.
type Not struct {
	Inst bool
	X    Expr
}

// And is conjunction: E1 + E2 (set) or E1 += E2 (instance). Active when
// both components are; its activation time stamp is the greater of the
// two.
type And struct {
	Inst bool
	L, R Expr
}

// Or is disjunction: E1 , E2 (set) or E1 ,= E2 (instance). Active when at
// least one component is; its activation time stamp is that of the active
// component, or the greater one when both are active.
type Or struct {
	Inst bool
	L, R Expr
}

// Seq is precedence: E1 < E2 (set) or E1 <= E2 (instance). Active when
// both components are active and the first became active no later than
// the second's activation; its activation time stamp is the second
// component's.
type Seq struct {
	Inst bool
	L, R Expr
}

func (Prim) isExpr() {}
func (Not) isExpr()  {}
func (And) isExpr()  {}
func (Or) isExpr()   {}
func (Seq) isExpr()  {}

// Convenience constructors. The paper's set-oriented operators:

// P wraps a primitive event type in an expression.
func P(t event.Type) Prim { return Prim{T: t} }

// Neg builds set-oriented negation -x.
func Neg(x Expr) Not { return Not{X: x} }

// Conj builds set-oriented conjunction l + r.
func Conj(l, r Expr) And { return And{L: l, R: r} }

// Disj builds set-oriented disjunction l , r.
func Disj(l, r Expr) Or { return Or{L: l, R: r} }

// Prec builds set-oriented precedence l < r.
func Prec(l, r Expr) Seq { return Seq{L: l, R: r} }

// And the instance-oriented variants:

// NegI builds instance-oriented negation -=x.
func NegI(x Expr) Not { return Not{Inst: true, X: x} }

// ConjI builds instance-oriented conjunction l += r.
func ConjI(l, r Expr) And { return And{Inst: true, L: l, R: r} }

// DisjI builds instance-oriented disjunction l ,= r.
func DisjI(l, r Expr) Or { return Or{Inst: true, L: l, R: r} }

// PrecI builds instance-oriented precedence l <= r.
func PrecI(l, r Expr) Seq { return Seq{Inst: true, L: l, R: r} }

// DisjAll folds a non-empty list of expressions into a left-nested
// set-oriented disjunction — the shape of an original Chimera event list
// "create, delete, modify(attr)".
func DisjAll(xs ...Expr) Expr {
	if len(xs) == 0 {
		panic("calculus: DisjAll of no expressions")
	}
	e := xs[0]
	for _, x := range xs[1:] {
		e = Disj(e, x)
	}
	return e
}

// IsInstanceRooted reports whether the expression's top-level node is an
// instance-oriented operator. Primitive events are usable at either
// granularity and report false.
func IsInstanceRooted(e Expr) bool {
	switch n := e.(type) {
	case Not:
		return n.Inst
	case And:
		return n.Inst
	case Or:
		return n.Inst
	case Seq:
		return n.Inst
	}
	return false
}

// instanceOnly reports whether e may appear under an instance-oriented
// operator: primitives and instance-oriented subtrees qualify,
// set-oriented operators do not.
func instanceOnly(e Expr) bool {
	switch n := e.(type) {
	case Prim:
		return true
	case Not:
		return n.Inst && instanceOnly(n.X)
	case And:
		return n.Inst && instanceOnly(n.L) && instanceOnly(n.R)
	case Or:
		return n.Inst && instanceOnly(n.L) && instanceOnly(n.R)
	case Seq:
		return n.Inst && instanceOnly(n.L) && instanceOnly(n.R)
	}
	return false
}

// Valid checks the well-formedness constraints of Section 3.2: every
// primitive event type must be valid, and instance-oriented operators
// cannot be applied to event subexpressions obtained by means of
// set-oriented operators (the converse is allowed).
func Valid(e Expr) error {
	switch n := e.(type) {
	case nil:
		return fmt.Errorf("calculus: nil expression")
	case Prim:
		return n.T.Valid()
	case Not:
		if n.Inst && !instanceOnly(n.X) {
			return fmt.Errorf("calculus: instance-oriented -= applied to set-oriented operand %s", n.X)
		}
		return Valid(n.X)
	case And:
		return validBinary(n.Inst, "+=", n.L, n.R)
	case Or:
		return validBinary(n.Inst, ",=", n.L, n.R)
	case Seq:
		return validBinary(n.Inst, "<=", n.L, n.R)
	}
	return fmt.Errorf("calculus: unknown expression node %T", e)
}

func validBinary(inst bool, op string, l, r Expr) error {
	if inst {
		if !instanceOnly(l) {
			return fmt.Errorf("calculus: instance-oriented %s applied to set-oriented operand %s", op, l)
		}
		if !instanceOnly(r) {
			return fmt.Errorf("calculus: instance-oriented %s applied to set-oriented operand %s", op, r)
		}
	}
	if err := Valid(l); err != nil {
		return err
	}
	return Valid(r)
}

// Primitives returns the distinct primitive event types mentioned by the
// expression, in first-mention order.
func Primitives(e Expr) []event.Type { return appendPrimitives(nil, e) }

// appendPrimitives appends the primitives of e that dst lacks.
func appendPrimitives(dst []event.Type, e Expr) []event.Type {
	switch n := e.(type) {
	case Prim:
		if !slices.Contains(dst, n.T) {
			dst = append(dst, n.T)
		}
	case Not:
		dst = appendPrimitives(dst, n.X)
	case And:
		dst = appendPrimitives(appendPrimitives(dst, n.L), n.R)
	case Or:
		dst = appendPrimitives(appendPrimitives(dst, n.L), n.R)
	case Seq:
		dst = appendPrimitives(appendPrimitives(dst, n.L), n.R)
	}
	return dst
}

// Equal reports structural equality of two expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Prim:
		y, ok := b.(Prim)
		return ok && x.T == y.T
	case Not:
		y, ok := b.(Not)
		return ok && x.Inst == y.Inst && Equal(x.X, y.X)
	case And:
		y, ok := b.(And)
		return ok && x.Inst == y.Inst && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Or:
		y, ok := b.(Or)
		return ok && x.Inst == y.Inst && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Seq:
		y, ok := b.(Seq)
		return ok && x.Inst == y.Inst && Equal(x.L, y.L) && Equal(x.R, y.R)
	}
	return false
}

// Size returns the number of nodes in the expression.
func Size(e Expr) int {
	switch n := e.(type) {
	case Prim:
		return 1
	case Not:
		return 1 + Size(n.X)
	case And:
		return 1 + Size(n.L) + Size(n.R)
	case Or:
		return 1 + Size(n.L) + Size(n.R)
	case Seq:
		return 1 + Size(n.L) + Size(n.R)
	}
	return 0
}

// Depth returns the operator-nesting depth (a primitive has depth 0).
func Depth(e Expr) int {
	switch n := e.(type) {
	case Prim:
		return 0
	case Not:
		return 1 + Depth(n.X)
	case And:
		return 1 + max(Depth(n.L), Depth(n.R))
	case Or:
		return 1 + max(Depth(n.L), Depth(n.R))
	case Seq:
		return 1 + max(Depth(n.L), Depth(n.R))
	}
	return 0
}

// ContainsNegation reports whether the expression contains a negation at
// any level. A negation-free expression is monotone: its ts never falls
// as occurrences arrive.
func ContainsNegation(e Expr) bool {
	switch n := e.(type) {
	case Prim:
		return false
	case Not:
		return true
	case And:
		return ContainsNegation(n.L) || ContainsNegation(n.R)
	case Or:
		return ContainsNegation(n.L) || ContainsNegation(n.R)
	case Seq:
		return ContainsNegation(n.L) || ContainsNegation(n.R)
	}
	panic("calculus: unknown expression node in ContainsNegation")
}

// Binding powers implementing Figure 1's priorities: operators are listed
// in decreasing priority as negation, conjunction = precedence,
// disjunction; every instance-oriented operator binds tighter than every
// set-oriented one.
func bindingPower(e Expr) int {
	switch n := e.(type) {
	case Prim:
		return 100
	case Not:
		if n.Inst {
			return 60
		}
		return 30
	case And:
		if n.Inst {
			return 50
		}
		return 20
	case Or:
		if n.Inst {
			return 40
		}
		return 10
	case Seq:
		if n.Inst {
			return 50
		}
		return 20
	}
	return 0
}

func opToken(e Expr) string {
	switch n := e.(type) {
	case And:
		if n.Inst {
			return "+="
		}
		return "+"
	case Or:
		if n.Inst {
			return ",="
		}
		return ","
	case Seq:
		if n.Inst {
			return "<="
		}
		return "<"
	}
	return "?"
}

// sameOpKind reports whether two expressions are the same binary operator
// with the same granularity (used to avoid parenthesizing associative
// left-nested chains).
func sameOpKind(a, b Expr) bool {
	switch x := a.(type) {
	case And:
		y, ok := b.(And)
		return ok && x.Inst == y.Inst
	case Or:
		y, ok := b.(Or)
		return ok && x.Inst == y.Inst
	case Seq:
		y, ok := b.(Seq)
		return ok && x.Inst == y.Inst
	}
	return false
}

func render(sb *strings.Builder, e Expr) {
	switch n := e.(type) {
	case Prim:
		sb.WriteString(n.T.String())
	case Not:
		if n.Inst {
			sb.WriteString("-=")
		} else {
			sb.WriteString("-")
		}
		renderChild(sb, e, n.X, false)
	case And:
		renderBinary(sb, e, n.L, n.R)
	case Or:
		renderBinary(sb, e, n.L, n.R)
	case Seq:
		renderBinary(sb, e, n.L, n.R)
	default:
		sb.WriteString("?")
	}
}

func renderBinary(sb *strings.Builder, parent, l, r Expr) {
	renderChild(sb, parent, l, false)
	sb.WriteString(" ")
	sb.WriteString(opToken(parent))
	sb.WriteString(" ")
	renderChild(sb, parent, r, true)
}

// renderChild parenthesizes a child when it binds looser than its parent,
// or equally loose on the right (binary operators associate to the left),
// or equally loose but with a different operator (conjunction and
// precedence share a priority and must be disambiguated explicitly).
func renderChild(sb *strings.Builder, parent, child Expr, right bool) {
	cp, pp := bindingPower(child), bindingPower(parent)
	need := cp < pp
	if _, isNot := parent.(Not); isNot {
		// A negation parenthesizes every non-primitive operand: the
		// operand's rendering may itself start with a negation token
		// ("--=..." would be ambiguous to scan), and -(E) reads better
		// anyway.
		if _, isPrim := child.(Prim); !isPrim {
			need = true
		}
	} else if cp == pp {
		need = right || !sameOpKind(parent, child)
	}
	if need {
		sb.WriteString("(")
		render(sb, child)
		sb.WriteString(")")
	} else {
		render(sb, child)
	}
}

func (p Prim) String() string { return p.T.String() }

func (n Not) String() string { return exprString(n) }
func (n And) String() string { return exprString(n) }
func (n Or) String() string  { return exprString(n) }
func (n Seq) String() string { return exprString(n) }

func exprString(e Expr) string {
	var sb strings.Builder
	render(&sb, e)
	return sb.String()
}
