package calculus

import (
	"fmt"
	"sort"
	"strings"

	"chimera/internal/event"
)

// This file implements the static optimization of Section 5.1: from a
// triggering expression E derive the variation set V(E) = Δ+(E) with the
// derivation rules of Figure 6, simplify it with the rules of Figure 7,
// and compile the result into a Filter the Trigger Support consults to
// decide whether a newly arrived event occurrence can possibly turn
// ts(E) positive — if not, the recomputation of ts is skipped.

// Sign tags the direction of a variation: whether an occurrence of the
// primitive type participates in raising (Δ+), lowering (Δ−) or either
// way (Δ±) the ts value of the enclosing expression.
type Sign int

const (
	// SignPos is Δ+.
	SignPos Sign = 1
	// SignNeg is Δ−.
	SignNeg Sign = 2
	// SignBoth is Δ± (the merged variation of Figure 7).
	SignBoth Sign = 3
)

// String renders the sign as the paper's superscript.
func (s Sign) String() string {
	switch s {
	case SignPos:
		return "+"
	case SignNeg:
		return "-"
	case SignBoth:
		return "±"
	}
	return "?"
}

// union merges two signs (Figure 7's {Δ+E, Δ−E} → {Δ±E}).
func (s Sign) union(o Sign) Sign { return s | o }

// Variation is one element of a variation set: a direction, a primitive
// event type, and whether the variation was derived at the object level
// (the Δ±O symbols of Figure 6, produced under instance-oriented
// operators).
type Variation struct {
	Sign     Sign
	Type     event.Type
	ObjLevel bool
}

// String renders the variation as Δ+A, Δ−O(A), Δ±A, ...
func (v Variation) String() string {
	lvl := ""
	if v.ObjLevel {
		lvl = "O"
	}
	return fmt.Sprintf("Δ%s%s(%s)", v.Sign, lvl, v.Type)
}

// VarSet is a set of variations.
type VarSet []Variation

// String renders the set in deterministic order, e.g.
// {Δ±(create(stock)), Δ+(modify(stock.quantity))}.
func (vs VarSet) String() string {
	sorted := append(VarSet(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Type != b.Type {
			return a.Type.String() < b.Type.String()
		}
		if a.ObjLevel != b.ObjLevel {
			return !a.ObjLevel
		}
		return a.Sign < b.Sign
	})
	parts := make([]string, len(sorted))
	for i, v := range sorted {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

type varKey struct {
	t   event.Type
	obj bool
}

// add unions a variation into the set, merging signs per level.
func (vs VarSet) add(v Variation) VarSet {
	for i := range vs {
		if vs[i].Type == v.Type && vs[i].ObjLevel == v.ObjLevel {
			vs[i].Sign = vs[i].Sign.union(v.Sign)
			return vs
		}
	}
	return append(vs, v)
}

// merge unions another variation set into the receiver.
func (vs VarSet) merge(o VarSet) VarSet {
	for _, v := range o {
		vs = vs.add(v)
	}
	return vs
}

// DerivePos computes Δ+(E) and DeriveNeg computes Δ−(E) using the
// derivation rules of Figure 6:
//
//	Δ+(-E)  = Δ−(E)                Δ−(-E)  = Δ+(E)
//	Δ+(E1 binop E2) = Δ+(E1) ∪ Δ+(E2)   (binop: conjunction, disjunction)
//	Δ−(E1 binop E2) = Δ−(E1) ∪ Δ−(E2)
//	Δ+(E1 < E2) = Δ−(E1 < E2) = Δ±(E1) ∪ Δ±(E2)
//
// with the same rules at the object level (ΔO) under instance-oriented
// operators, and the leaves Δ+(A) = {Δ+A}, Δ−(A) = {Δ−A} for a primitive
// type A.
//
// Precedence contributes both variation directions of both operands: a
// new occurrence of either operand shifts the activation time stamps the
// sequence compares, which can activate or deactivate it regardless of
// the operand's own direction (e.g. a fresh occurrence of E2 re-anchors
// the instant at which E1 must already have been active). This is also
// what the paper's worked example requires: in
// E = (A+B) , (C + -A) , (A += C) , (B <= A) the only possible source of
// the Δ− component of the final Δ±B is the precedence (B <= A).
//
// (Figure 6 is partially garbled in the available scan; this
// reconstruction reproduces the paper's worked example exactly — see
// TestWorkedVariationExample.)
func DerivePos(e Expr) VarSet { return derive(e, SignPos, false) }

func flipSign(s Sign) Sign {
	switch s {
	case SignPos:
		return SignNeg
	case SignNeg:
		return SignPos
	}
	return s
}

func derive(e Expr, want Sign, objLevel bool) VarSet {
	switch n := e.(type) {
	case Prim:
		return VarSet{{Sign: want, Type: n.T, ObjLevel: objLevel}}
	case Not:
		return derive(n.X, flipSign(want), objLevel || n.Inst)
	case And:
		return deriveBinary(n.L, n.R, want, objLevel || n.Inst)
	case Or:
		return deriveBinary(n.L, n.R, want, objLevel || n.Inst)
	case Seq:
		// Both directions of both operands; see the DerivePos comment.
		return deriveBinary(n.L, n.R, SignBoth, objLevel || n.Inst)
	}
	panic("calculus: unknown expression node in derive")
}

func deriveBinary(l, r Expr, want Sign, objLevel bool) VarSet {
	return derive(l, want, objLevel).merge(derive(r, want, objLevel))
}

// Simplify applies the rules of Figure 7: variations of the same type at
// the same level merge their signs into Δ±; an object-level variation is
// absorbed by a set-level variation of the same type (its sign folded
// in), because an occurrence on any object is in particular an
// occurrence at the set level.
func Simplify(vs VarSet) VarSet {
	byType := make(map[event.Type]Sign)
	hasSet := make(map[event.Type]bool)
	objOnly := make(map[event.Type]Sign)
	var order []event.Type
	seen := make(map[event.Type]bool)
	for _, v := range vs {
		if !seen[v.Type] {
			seen[v.Type] = true
			order = append(order, v.Type)
		}
		if v.ObjLevel {
			objOnly[v.Type] = objOnly[v.Type].union(v.Sign)
		} else {
			hasSet[v.Type] = true
			byType[v.Type] = byType[v.Type].union(v.Sign)
		}
	}
	var out VarSet
	for _, t := range order {
		if hasSet[t] {
			// Object-level folds into set-level ({Δ+E, Δ+O E} → {Δ+E} and
			// the mixed-sign combinations → Δ±E).
			out = append(out, Variation{Sign: byType[t].union(objOnly[t]), Type: t})
		} else {
			out = append(out, Variation{Sign: objOnly[t], Type: t, ObjLevel: true})
		}
	}
	return out
}

// V computes the simplified variation set V(E) = simplify(Δ+(E)) of
// Section 5.1.
func V(e Expr) VarSet { return Simplify(DerivePos(e)) }

// VacuouslyActive reports whether E is active over a portion of the Event
// Base that contains occurrences of none of E's primitive types (i.e.
// every primitive evaluates to -t'). Such expressions — negations and
// disjunctions with a negated arm — become active through the mere
// presence of unrelated events in R, so no per-type filter is sound for
// them and the Trigger Support must recompute on every arrival.
//
// The computation is the sign algebra of the calculus with every
// primitive inactive: negation flips, conjunction and precedence are
// conjunctive, disjunction is disjunctive; an instance negation over a
// non-empty domain of unrelated objects behaves like the set negation.
func VacuouslyActive(e Expr) bool {
	switch n := e.(type) {
	case Prim:
		return false
	case Not:
		return !VacuouslyActive(n.X)
	case And:
		return VacuouslyActive(n.L) && VacuouslyActive(n.R)
	case Or:
		return VacuouslyActive(n.L) || VacuouslyActive(n.R)
	case Seq:
		return VacuouslyActive(n.L) && VacuouslyActive(n.R)
	}
	panic("calculus: unknown expression node in VacuouslyActive")
}

// Filter is the compiled form of V(E) the Trigger Support consults on
// every arrival (Section 5.1: "conditions on an event expression that
// guarantee, if not met, that the value of ts cannot become positive").
type Filter struct {
	// MatchAll is set for vacuously active expressions: every arrival is
	// relevant (the R ≠ ∅ guard is the only gate).
	MatchAll bool
	// signs maps each primitive type in V(E) to its merged sign.
	signs map[varKey]Sign
	// set is the original simplified variation set, for display.
	set VarSet
}

// ContainsInstanceNegation reports whether the expression contains an
// instance-oriented negation (-=). The activation of an instance
// negation used at the set level depends on the object domain of R: an
// arrival on a previously unseen object — of any event type — enlarges
// that domain and can change the lift's outcome, so no per-type filter is
// sound for such expressions and Compile falls back to MatchAll.
func ContainsInstanceNegation(e Expr) bool {
	switch n := e.(type) {
	case Prim:
		return false
	case Not:
		return n.Inst || ContainsInstanceNegation(n.X)
	case And:
		return ContainsInstanceNegation(n.L) || ContainsInstanceNegation(n.R)
	case Or:
		return ContainsInstanceNegation(n.L) || ContainsInstanceNegation(n.R)
	case Seq:
		return ContainsInstanceNegation(n.L) || ContainsInstanceNegation(n.R)
	}
	panic("calculus: unknown expression node in ContainsInstanceNegation")
}

// Compile derives, simplifies and compiles V(E).
func Compile(e Expr) *Filter {
	f := &Filter{signs: make(map[varKey]Sign), set: V(e)}
	if VacuouslyActive(e) || ContainsInstanceNegation(e) {
		f.MatchAll = true
	}
	for _, v := range f.set {
		f.signs[varKey{v.Type, v.ObjLevel}] = v.Sign
	}
	return f
}

// Set returns the simplified variation set behind the filter.
func (f *Filter) Set() VarSet { return f.set }

// Relevant reports whether an arrival of type t can possibly raise ts(E):
// true when the filter matches all arrivals, or when t carries a Δ+ or
// Δ± variation at either level. A pure Δ− variation (the type occurs only
// under an odd number of negations) can only lower ts, so a rule that is
// not yet triggered can skip recomputation for it.
func (f *Filter) Relevant(t event.Type) bool {
	if f.MatchAll {
		return true
	}
	if s, ok := f.signs[varKey{t, false}]; ok && s&SignPos != 0 {
		return true
	}
	if s, ok := f.signs[varKey{t, true}]; ok && s&SignPos != 0 {
		return true
	}
	return false
}

// RelevantTypes returns the primitive types whose arrivals can raise
// ts(E) (sign Δ+ or Δ± at either level) — the listening set the Trigger
// Support indexes. It is nil when MatchAll is set.
func (f *Filter) RelevantTypes() []event.Type {
	if f.MatchAll {
		return nil
	}
	seen := make(map[event.Type]bool)
	var out []event.Type
	for _, v := range f.set {
		if v.Sign&SignPos != 0 && !seen[v.Type] {
			seen[v.Type] = true
			out = append(out, v.Type)
		}
	}
	return out
}
