package calculus

import (
	"fmt"
	"slices"
	"strings"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// Explain produces a human-readable account of a ts evaluation: every
// subexpression annotated with its ts value and activation state, lifts
// annotated with their quantifier and per-object breakdown. The shell's
// `explain <rule>` command renders it so a rule author can see exactly
// why a composite event is (not) active — the calculus counterpart of a
// query plan. It walks the plan's nodes and reads every value from the
// PlanEval, the evaluator that fires rules.

// ExplainNode is one node of the evaluation tree.
type ExplainNode struct {
	// Expr is the rendering of this subexpression.
	Expr string
	// Value is ts (or ots, inside a lift) at the probed instant.
	Value TS
	// Note carries operator-specific detail ("universal lift over 3
	// objects", "sequence anchor ts(B)=t7", ...).
	Note string
	// Children are the operand evaluations (for lifts: one entry per
	// object of the lift).
	Children []ExplainNode
}

// Active reports the node's activation state.
func (n ExplainNode) Active() bool { return n.Value.Active() }

// String renders the tree with indentation.
func (n ExplainNode) String() string {
	var sb strings.Builder
	n.render(&sb, 0)
	return sb.String()
}

func (n ExplainNode) render(sb *strings.Builder, depth int) {
	state := "inactive"
	if n.Active() {
		state = "ACTIVE"
	}
	fmt.Fprintf(sb, "%s%s  →  ts=%d (%s)", strings.Repeat("  ", depth), n.Expr, int64(n.Value), state)
	if n.Note != "" {
		fmt.Fprintf(sb, "  [%s]", n.Note)
	}
	sb.WriteString("\n")
	for _, c := range n.Children {
		c.render(sb, depth+1)
	}
}

// Explain evaluates ts of node id at t over R = (since, t] and returns the
// annotated tree. pe must be bound (Bind) with a floor at or below since.
func (pe *PlanEval) Explain(id NodeID, t, since clock.Time) ExplainNode {
	n := &pe.plan.nodes[id]
	node := ExplainNode{Expr: n.expr.String(), Value: pe.TS(id, t, since)}
	if n.instRooted {
		return pe.explainLift(id, n, node, t, since)
	}
	switch n.key.op {
	case planPrim:
		node.Note = "no occurrence in window"
		if node.Active() {
			node.Note = fmt.Sprintf("last occurrence at t%d", node.Value)
		}
	case planNot:
		node.Note = "negation flips the component's ts"
		node.Children = []ExplainNode{pe.Explain(n.key.l, t, since)}
	case planAnd:
		node.Note = "both active → max of stamps"
		if !node.Active() {
			node.Note = "needs both components active"
		}
		node.Children = []ExplainNode{pe.Explain(n.key.l, t, since), pe.Explain(n.key.r, t, since)}
	case planOr:
		node.Note = "at least one component active"
		if !node.Active() {
			node.Note = "no component active"
		}
		node.Children = []ExplainNode{pe.Explain(n.key.l, t, since), pe.Explain(n.key.r, t, since)}
	case planSeq:
		r := pe.Explain(n.key.r, t, since)
		if !r.Active() {
			node.Note = "second component inactive"
			node.Children = []ExplainNode{r}
			break
		}
		anchor := r.Value.Time()
		l := pe.Explain(n.key.l, anchor, since)
		l.Note = strings.TrimSpace(l.Note + fmt.Sprintf(" (evaluated at the anchor t%d)", anchor))
		node.Note = fmt.Sprintf("first not active by the second's stamp t%d", anchor)
		if node.Active() {
			node.Note = fmt.Sprintf("first active by the second's stamp t%d", anchor)
		}
		node.Children = []ExplainNode{l, r}
	}
	return node
}

// explainLift explains a maximal instance-rooted subexpression: the
// quantifier, the lift's objects — the ones the node's types touched,
// ascending by OID, when it is restrictionSafe, every object of the
// window in order of first appearance otherwise — and one child per
// object, its ots read from the lift's fold.
func (pe *PlanEval) explainLift(id NodeID, n *planNode, node ExplainNode, t, since clock.Time) ExplainNode {
	pe.rd = pe.base.Read()
	defer pe.endFold()
	pe.fold(n.set, t, since)
	objs := pe.touched
	if !n.safe {
		pe.oidScratch = pe.rd.AppendObjs(pe.oidScratch[:0], since, t)
		objs = pe.oidScratch
	}
	var oids []types.OID
	for _, oi := range objs {
		oids = append(oids, pe.rd.OID(oi))
	}
	if n.safe {
		slices.Sort(oids)
	}
	quant := "existential lift (some object)"
	if n.key.op == planNot {
		quant = "universal lift (no object may satisfy the body)"
	}
	node.Note = fmt.Sprintf("%s over %d object(s)", quant, len(oids))
	for _, oid := range oids {
		oi := pe.rd.ObjID(oid)
		node.Children = append(node.Children, ExplainNode{
			Expr:  fmt.Sprintf("ots for %s", oid),
			Value: pe.ots(id, t, since, oi, pe.row(oi)),
		})
	}
	return node
}

// ExplainTrigger renders the full Section 4.4 triggering verdict of node
// id over R = (since, now]: the R ≠ ∅ guard, the ∃t' probe — every
// arrival of R, then now — and the ts tree at the decisive instant (the
// firing instant when triggered, now otherwise). pe must be bound (Bind)
// with a floor at or below since.
func (pe *PlanEval) ExplainTrigger(id NodeID, since, now clock.Time) string {
	var sb strings.Builder
	arrivals := pe.base.Arrivals(since, now)
	fmt.Fprintf(&sb, "window R = (t%d, t%d]: %d occurrence(s)\n", since, now, len(arrivals))
	if len(arrivals) == 0 {
		sb.WriteString("R is empty → not triggered (reactive-system guard)\n")
		return sb.String()
	}
	for _, at := range append(arrivals, now) {
		pe.Begin(at)
		if pe.TS(id, at, since).Active() {
			fmt.Fprintf(&sb, "∃t' probe: ts positive first at t' = t%d → TRIGGERED\n", at)
			sb.WriteString(pe.Explain(id, at, since).String())
			return sb.String()
		}
	}
	fmt.Fprintf(&sb, "∃t' probe: ts never positive at any of %d instants → not triggered\n", len(arrivals)+1)
	sb.WriteString(pe.Explain(id, now, since).String())
	return sb.String()
}
