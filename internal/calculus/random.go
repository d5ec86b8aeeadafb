package calculus

import (
	"math/rand"

	"chimera/internal/event"
)

// This file provides the deterministic pseudo-random expression
// generator that the property tests of several packages share. Only
// tests call it. It stays in the library because calculus's own
// in-package tests use it too: a helper package would import calculus,
// and calculus's tests could then not import it without a cycle.

// GenOptions controls random expression generation.
type GenOptions struct {
	// Types is the primitive vocabulary to draw from; it must be non-empty.
	Types []event.Type
	// MaxDepth bounds the operator nesting depth.
	MaxDepth int
	// Full forces every branch to reach MaxDepth (complete trees), so a
	// depth sweep actually sweeps depth; without it branches terminate
	// early at random.
	Full bool
	// AllowNegation permits - and -= nodes.
	AllowNegation bool
	// AllowInstance permits instance-oriented operators.
	AllowInstance bool
	// AllowPrecedence permits < and <= nodes.
	AllowPrecedence bool
}

// DefaultVocabulary is a small primitive-event vocabulary over the
// paper's stock/show classes, handy for tests.
func DefaultVocabulary() []event.Type {
	return []event.Type{
		event.Create("stock"),
		event.Delete("stock"),
		event.Modify("stock", "quantity"),
		event.Modify("stock", "minquantity"),
		event.Create("show"),
		event.Modify("show", "quantity"),
	}
}

// GenExpr draws a random well-formed expression. The result always
// satisfies Valid.
func GenExpr(r *rand.Rand, o GenOptions) Expr {
	if len(o.Types) == 0 {
		panic("calculus: GenExpr needs a non-empty vocabulary")
	}
	return genExpr(r, o, o.MaxDepth, false)
}

// genExpr generates a subtree; instOnly forces instance-oriented
// granularity (required under instance operators).
func genExpr(r *rand.Rand, o GenOptions, depth int, instOnly bool) Expr {
	if depth <= 0 || (!o.Full && r.Intn(3) == 0) {
		return Prim{T: o.Types[r.Intn(len(o.Types))]}
	}
	// Choose an operator. Weights keep binary operators dominant.
	kinds := []int{opAnd, opAnd, opOr, opOr}
	if o.AllowNegation {
		kinds = append(kinds, opNot)
	}
	if o.AllowPrecedence {
		kinds = append(kinds, opSeq)
	}
	kind := kinds[r.Intn(len(kinds))]
	inst := instOnly
	if !inst && o.AllowInstance && r.Intn(3) == 0 {
		inst = true
	}
	childInst := instOnly || inst
	switch kind {
	case opNot:
		return Not{Inst: inst, X: genExpr(r, o, depth-1, childInst)}
	case opAnd:
		return And{Inst: inst, L: genExpr(r, o, depth-1, childInst), R: genExpr(r, o, depth-1, childInst)}
	case opOr:
		return Or{Inst: inst, L: genExpr(r, o, depth-1, childInst), R: genExpr(r, o, depth-1, childInst)}
	default:
		return Seq{Inst: inst, L: genExpr(r, o, depth-1, childInst), R: genExpr(r, o, depth-1, childInst)}
	}
}

const (
	opNot = iota
	opAnd
	opOr
	opSeq
)
