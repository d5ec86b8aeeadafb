package calculus

// This file provides derived combinators: composite-event idioms from
// the systems the paper's related-work section surveys (Ode, HiPAC,
// Snoop, Samos, REFLEX), expressed in the minimal orthogonal operator
// set — the paper's central design claim is that a small calculus
// composes into the richer vocabularies of those systems. Each
// combinator documents which related-work operator it reproduces and
// with what fidelity (the calculus deliberately has no counting or
// explicit clock operators, so Times/periodic have no equivalent).

// ConjAll folds expressions into a left-nested set conjunction — HiPAC's
// "all of these events have been signalled".
func ConjAll(xs ...Expr) Expr {
	if len(xs) == 0 {
		panic("calculus: ConjAll of no expressions")
	}
	e := xs[0]
	for _, x := range xs[1:] {
		e = Conj(e, x)
	}
	return e
}

// Sequence folds expressions into a left-nested set precedence chain
// x1 < x2 < ... < xn: Ode/HiPAC's sequence operator. It is active when
// every component is active and each component's latest activation is no
// later than the next one's.
func Sequence(xs ...Expr) Expr {
	if len(xs) == 0 {
		panic("calculus: Sequence of no expressions")
	}
	e := xs[0]
	for _, x := range xs[1:] {
		e = Prec(e, x)
	}
	return e
}

// SequenceI is Sequence at the instance level (all components on the
// same object).
func SequenceI(xs ...Expr) Expr {
	if len(xs) == 0 {
		panic("calculus: SequenceI of no expressions")
	}
	e := xs[0]
	for _, x := range xs[1:] {
		e = PrecI(e, x)
	}
	return e
}

// AnyOf is n-ary set disjunction — the event list of original Chimera
// and the disjunction of every surveyed system.
func AnyOf(xs ...Expr) Expr { return DisjAll(xs...) }

// NoneOf is the absence of every listed event over the observed window —
// Snoop's NOT over the implicit interval (the rule's consumption window)
// rather than an explicit (E1, E2) interval, which the calculus expresses
// through the window instead of through operators. De Morgan guarantees
// NoneOf(a, b) ≡ -(a , b) ≡ -a + -b.
func NoneOf(xs ...Expr) Expr { return Neg(DisjAll(xs...)) }

// SameObject lifts a list of primitive events into Samos's "same"
// qualifier: all components on one object (instance conjunction).
func SameObject(xs ...Expr) Expr {
	if len(xs) == 0 {
		panic("calculus: SameObject of no expressions")
	}
	e := xs[0]
	for _, x := range xs[1:] {
		e = ConjI(e, x)
	}
	return e
}
