package calculus

// The algebraic law layer of Section 4, which laws_test.go checks: the paper
// proves that the ts assignment validates the "obvious properties of
// calculus" — De Morgan's rules, commutativity and associativity of
// conjunction and disjunction, and distributivity/factoring of the
// precedence operator. Each law is exposed as a rewrite on expressions;
// the property tests check that every rewrite preserves ts pointwise on
// random event histories, and the normalizer below uses them to push
// negations to the leaves.

// LawStrength says how strongly the ts semantics validates a law.
type LawStrength int

const (
	// LawExact laws preserve the ts value pointwise.
	LawExact LawStrength = iota
	// LawActivation laws preserve only the activation state (sign of ts).
	LawActivation
)

// Law is a named equivalence-preserving rewrite. Apply returns the
// rewritten expression and true when the law's pattern matches the root
// of e; otherwise it returns e unchanged and false.
type Law struct {
	Name     string
	Strength LawStrength
	// NegFree restricts the law's validity to operands without negation.
	NegFree bool
	Apply   func(e Expr) (Expr, bool)
}

// sameInst rebuilds preserving granularity; the laws hold at both the
// set-oriented and the instance-oriented level (Section 4.3: "all the
// properties valid for the set-oriented operators can be easily extended
// to the instance-oriented case").

// Laws returns the paper's property list as rewrites, in the order of
// Section 4.2.
//
// Each law carries the strength at which the ts semantics validates it:
//
//   - LawExact laws preserve the ts value pointwise on every history
//     (De Morgan, double negation, commutativity, associativity, and the
//     precedence factorings over negation-free operands);
//   - LawActivation laws preserve activation (the sign of ts) pointwise
//     but may report a different positive activation time stamp
//     (distributivity of conjunction over disjunction: the two sides can
//     pick different — equally valid — witnesses);
//   - the precedence factorings additionally require negation-free
//     operands (NegFree): a negated operand's ts can decrease over time,
//     which breaks the factoring in both value and sign. The property
//     tests document this boundary with an explicit counterexample.
func Laws() []Law {
	return []Law{
		{"de-morgan-conj", LawExact, false, deMorganConj},            // -(E1 + E2) = -E1 , -E2
		{"de-morgan-disj", LawExact, false, deMorganDisj},            // -(E1 , E2) = -E1 + -E2
		{"double-negation", LawExact, false, doubleNegation},         // --E = E
		{"conj-commutativity", LawExact, false, conjComm},            // E1 + E2 = E2 + E1
		{"disj-commutativity", LawExact, false, disjComm},            // E1 , E2 = E2 , E1
		{"conj-associativity", LawExact, false, conjAssoc},           // (E1 + E2) + E3 = E1 + (E2 + E3)
		{"disj-associativity", LawExact, false, disjAssoc},           // (E1 , E2) , E3 = E1 , (E2 , E3)
		{"conj-disj-distributivity", LawActivation, false, conjDist}, // E1 + (E2 , E3) = (E1 + E2) , (E1 + E3)
		{"prec-disj-left-factoring", LawExact, true, precDisjL},      // (E1 , E2) < E3 = (E1 < E3) , (E2 < E3)
		{"prec-disj-right-factoring", LawExact, true, precDisjR},     // E1 < (E2 , E3) = (E1 < E2) , (E1 < E3)
		{"prec-conj-left-factoring", LawExact, true, precConjL},      // (E1 + E2) < E3 = (E1 < E3) + (E2 < E3)
	}
}

func deMorganConj(e Expr) (Expr, bool) {
	n, ok := e.(Not)
	if !ok {
		return e, false
	}
	c, ok := n.X.(And)
	if !ok || c.Inst != n.Inst {
		return e, false
	}
	return Or{Inst: n.Inst,
		L: Not{Inst: n.Inst, X: c.L},
		R: Not{Inst: n.Inst, X: c.R}}, true
}

func deMorganDisj(e Expr) (Expr, bool) {
	n, ok := e.(Not)
	if !ok {
		return e, false
	}
	d, ok := n.X.(Or)
	if !ok || d.Inst != n.Inst {
		return e, false
	}
	return And{Inst: n.Inst,
		L: Not{Inst: n.Inst, X: d.L},
		R: Not{Inst: n.Inst, X: d.R}}, true
}

func doubleNegation(e Expr) (Expr, bool) {
	n, ok := e.(Not)
	if !ok {
		return e, false
	}
	inner, ok := n.X.(Not)
	if !ok || inner.Inst != n.Inst {
		return e, false
	}
	return inner.X, true
}

func conjComm(e Expr) (Expr, bool) {
	n, ok := e.(And)
	if !ok {
		return e, false
	}
	return And{Inst: n.Inst, L: n.R, R: n.L}, true
}

func disjComm(e Expr) (Expr, bool) {
	n, ok := e.(Or)
	if !ok {
		return e, false
	}
	return Or{Inst: n.Inst, L: n.R, R: n.L}, true
}

func conjAssoc(e Expr) (Expr, bool) {
	n, ok := e.(And)
	if !ok {
		return e, false
	}
	l, ok := n.L.(And)
	if !ok || l.Inst != n.Inst {
		return e, false
	}
	return And{Inst: n.Inst, L: l.L, R: And{Inst: n.Inst, L: l.R, R: n.R}}, true
}

func disjAssoc(e Expr) (Expr, bool) {
	n, ok := e.(Or)
	if !ok {
		return e, false
	}
	l, ok := n.L.(Or)
	if !ok || l.Inst != n.Inst {
		return e, false
	}
	return Or{Inst: n.Inst, L: l.L, R: Or{Inst: n.Inst, L: l.R, R: n.R}}, true
}

func conjDist(e Expr) (Expr, bool) {
	n, ok := e.(And)
	if !ok {
		return e, false
	}
	d, ok := n.R.(Or)
	if !ok || d.Inst != n.Inst {
		return e, false
	}
	return Or{Inst: n.Inst,
		L: And{Inst: n.Inst, L: n.L, R: d.L},
		R: And{Inst: n.Inst, L: n.L, R: d.R}}, true
}

func precDisjL(e Expr) (Expr, bool) {
	n, ok := e.(Seq)
	if !ok {
		return e, false
	}
	d, ok := n.L.(Or)
	if !ok || d.Inst != n.Inst {
		return e, false
	}
	return Or{Inst: n.Inst,
		L: Seq{Inst: n.Inst, L: d.L, R: n.R},
		R: Seq{Inst: n.Inst, L: d.R, R: n.R}}, true
}

func precDisjR(e Expr) (Expr, bool) {
	n, ok := e.(Seq)
	if !ok {
		return e, false
	}
	d, ok := n.R.(Or)
	if !ok || d.Inst != n.Inst {
		return e, false
	}
	return Or{Inst: n.Inst,
		L: Seq{Inst: n.Inst, L: n.L, R: d.L},
		R: Seq{Inst: n.Inst, L: n.L, R: d.R}}, true
}

func precConjL(e Expr) (Expr, bool) {
	n, ok := e.(Seq)
	if !ok {
		return e, false
	}
	c, ok := n.L.(And)
	if !ok || c.Inst != n.Inst {
		return e, false
	}
	return And{Inst: n.Inst,
		L: Seq{Inst: n.Inst, L: c.L, R: n.R},
		R: Seq{Inst: n.Inst, L: c.R, R: n.R}}, true
}

// PushNegations rewrites the expression into an equivalent one whose
// negations apply only to primitive event types (or to precedence nodes,
// which have no dual in the calculus), by exhaustively applying
// De Morgan's rules and double-negation elimination top-down. The ts
// semantics is preserved exactly (TestNormalizeEquivalence).
//
// One boundary is respected: the root of a maximal instance-oriented
// subexpression is never rewritten. The ots→ts lift of Section 4.3 is
// selected by that root's operator — universal for instance negation,
// existential for everything else — so a rewrite that turns the lift
// root from a negation into a conjunction (or vice versa) would change
// which quantifier applies at the set level: -=(A ,= B) ("no object has
// either event") is genuinely different from -=A += -=B ("some object
// has neither"). Strictly inside an instance subexpression the laws are
// ots-exact and rewriting is safe. See DESIGN.md §5.
func PushNegations(e Expr) Expr {
	return pushNeg(e, true)
}

// pushNeg normalizes e; atSetLevel is true when e sits in a set-oriented
// context (so an instance-rooted e would be a lift root).
func pushNeg(e Expr, atSetLevel bool) Expr {
	liftRoot := atSetLevel && IsInstanceRooted(e)
	inner := atSetLevel && !liftRoot // children of set nodes stay at set level
	switch n := e.(type) {
	case Prim:
		return n
	case Not:
		if !liftRoot {
			if r, ok := deMorganConj(n); ok {
				return pushNeg(r, atSetLevel)
			}
			if r, ok := deMorganDisj(n); ok {
				return pushNeg(r, atSetLevel)
			}
			if r, ok := doubleNegation(n); ok {
				return pushNeg(r, atSetLevel)
			}
		}
		// Negation over a primitive or precedence stays put; a lift-root
		// negation is preserved as-is with its body normalized in the
		// instance context.
		return Not{Inst: n.Inst, X: pushNeg(n.X, inner)}
	case And:
		return And{Inst: n.Inst, L: pushNeg(n.L, inner), R: pushNeg(n.R, inner)}
	case Or:
		return Or{Inst: n.Inst, L: pushNeg(n.L, inner), R: pushNeg(n.R, inner)}
	case Seq:
		return Seq{Inst: n.Inst, L: pushNeg(n.L, inner), R: pushNeg(n.R, inner)}
	}
	panic("calculus: unknown expression node in PushNegations")
}

// Rewrite applies fn to every node bottom-up, rebuilding the expression.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	switch n := e.(type) {
	case Prim:
		return fn(n)
	case Not:
		return fn(Not{Inst: n.Inst, X: Rewrite(n.X, fn)})
	case And:
		return fn(And{Inst: n.Inst, L: Rewrite(n.L, fn), R: Rewrite(n.R, fn)})
	case Or:
		return fn(Or{Inst: n.Inst, L: Rewrite(n.L, fn), R: Rewrite(n.R, fn)})
	case Seq:
		return fn(Seq{Inst: n.Inst, L: Rewrite(n.L, fn), R: Rewrite(n.R, fn)})
	}
	panic("calculus: unknown expression node in Rewrite")
}
