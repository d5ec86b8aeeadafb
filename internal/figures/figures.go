// Package figures regenerates every figure of the paper and the in-text
// worked examples, as formatted text plus programmatic values the tests
// assert on. The chimera-figures command prints them, docs/figures.txt
// is its output held byte for byte by TestFiguresMatchReference, and
// EXPERIMENTS.md records the correspondence with the paper.
package figures

import (
	"fmt"
	"strings"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/lang"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Figure1 renders the composition-operator table (operators in
// decreasing priority, instance- and set-oriented tokens).
func Figure1() string {
	var sb strings.Builder
	sb.WriteString("Figure 1 — Composition Operators\n")
	sb.WriteString(fmt.Sprintf("%-12s | %-17s | %-12s\n", "", "Instance Oriented", "Set Oriented"))
	for _, op := range calculus.Operators() {
		sb.WriteString(fmt.Sprintf("%-12s | %-17s | %-12s\n",
			strings.Title(op.Name), op.InstanceToken, op.SetToken))
	}
	return sb.String()
}

// Figure2 renders the three design dimensions of the operator set.
func Figure2() string {
	var sb strings.Builder
	sb.WriteString("Figure 2 — Event operator dimensions\n")
	sb.WriteString("boolean dimension    : negation (-, -=), conjunction (+, +=), disjunction (,, ,=)\n")
	sb.WriteString("temporal dimension   : precedence (<, <=)\n")
	sb.WriteString("granularity dimension: instance-oriented (-=, +=, <=, ,=) vs set-oriented (-, +, <, ,)\n")
	return sb.String()
}

// Figure3 builds the example Event Base of Figure 3 and renders it.
//
//	e1 create(stock)          o1 t1
//	e2 create(stock)          o2 t2
//	e3 create(order)          o3 t3
//	e4 create(notFilledOrder) o3 t4
//	e5 modify(stock.quantity) o1 t5
//	e6 modify(stock.quantity) o2 t6
//	e7 delete(stock)          o1 t7
func Figure3() (*event.Base, string) {
	b := event.NewBase()
	rows := []struct {
		ty  event.Type
		oid types.OID
	}{
		{event.Create("stock"), 1},
		{event.Create("stock"), 2},
		{event.Create("order"), 3},
		{event.Create("notFilledOrder"), 3},
		{event.Modify("stock", "quantity"), 1},
		{event.Modify("stock", "quantity"), 2},
		{event.Delete("stock"), 1},
	}
	for i, r := range rows {
		if _, err := b.Append(r.ty, r.oid, clock.Time(i+1)); err != nil {
			panic(err)
		}
	}
	return b, "Figure 3 — Example of EB\n" + b.String()
}

// Figure4 renders the event-attribute matches of Figure 4 computed on
// the Figure 3 base.
func Figure4() string {
	b, _ := Figure3()
	all := b.All()
	e := func(i int) event.Occurrence { return all[i-1] }
	var sb strings.Builder
	sb.WriteString("Figure 4 — Event attribute matches on EB\n")
	fmt.Fprintf(&sb, "type(e1) = %s            obj(e5) = %s\n", event.TypeOf(e(1)), event.Obj(e(5)))
	fmt.Fprintf(&sb, "type(e5) = %s  obj(e6) = %s\n", event.TypeOf(e(5)), event.Obj(e(6)))
	fmt.Fprintf(&sb, "type(e7) = %s            obj(e7) = %s\n", event.TypeOf(e(7)), event.Obj(e(7)))
	fmt.Fprintf(&sb, "timestamp(e2) = t%d    event-on-class(e1) = %s\n",
		event.Timestamp(e(2)), event.EventOnClass(e(1)))
	fmt.Fprintf(&sb, "timestamp(e4) = t%d    event-on-class(e6) = %s\n",
		event.Timestamp(e(4)), event.EventOnClass(e(6)))
	fmt.Fprintf(&sb, "timestamp(e6) = t%d\n", event.Timestamp(e(6)))
	return sb.String()
}

// Figure5History is the occurrence history of Figure 5: types C A C B A
// B C at instants t1..t7 (type C is not involved in the plotted
// expressions; it shows that unrelated events do not disturb the
// curves).
func Figure5History() (*event.Base, clock.Time) {
	A := event.Create("a")
	B := event.Create("b")
	C := event.Create("c")
	seq := []event.Type{C, A, C, B, A, B, C}
	b := event.NewBase()
	for i, t := range seq {
		if _, err := b.Append(t, types.OID(i+1), clock.Time(i+1)); err != nil {
			panic(err)
		}
	}
	return b, clock.Time(len(seq) + 1)
}

// Figure5 samples the six ts curves of Figure 5 — ts(A), ts(-A), ts(B),
// ts(A,B), -ts(A,B) and ts(-A + -B) — over the Figure5History, proving
// De Morgan's rule graphically: the last two curves coincide pointwise.
func Figure5() ([]calculus.Series, string) {
	b, horizon := Figure5History()
	env := &calculus.Env{Base: b}
	A := calculus.P(event.Create("a"))
	B := calculus.P(event.Create("b"))
	series := []calculus.Series{
		env.SampleSeries("ts(A,t)", A, horizon),
		env.SampleSeries("ts(-A,t)", calculus.Neg(A), horizon),
		env.SampleSeries("ts(B,t)", B, horizon),
		env.SampleSeries("ts((A,B),t)", calculus.Disj(A, B), horizon),
		env.SampleSeries("-ts((A,B),t)", calculus.Neg(calculus.Disj(A, B)), horizon),
		env.SampleSeries("ts((-A + -B),t)", calculus.Conj(calculus.Neg(A), calculus.Neg(B)), horizon),
	}
	var sb strings.Builder
	sb.WriteString("Figure 5 — ts functions over the history C A C B A B C (t1..t7)\n")
	sb.WriteString(calculus.Plot(series))
	sb.WriteString("values:\n")
	for _, s := range series {
		sb.WriteString("  " + s.String() + "\n")
	}
	if calculus.EqualSeries(series[4], series[5]) {
		sb.WriteString("De Morgan graphical proof: ts(-(A,B)) == ts(-A + -B) pointwise ✓\n")
	} else {
		sb.WriteString("De Morgan graphical proof FAILED\n")
	}
	return series, sb.String()
}

// Figure6 renders the variation derivation rules (as reconstructed; see
// DESIGN.md §5.2).
func Figure6() string {
	return `Figure 6 — Derivation Rules (reconstruction)
Δ+(-E)        = Δ−(E)                      Δ−(-E)        = Δ+(E)
Δ+(E1 + E2)   = Δ+(E1) ∪ Δ+(E2)            Δ−(E1 + E2)   = Δ−(E1) ∪ Δ−(E2)
Δ+(E1 , E2)   = Δ+(E1) ∪ Δ+(E2)            Δ−(E1 , E2)   = Δ−(E1) ∪ Δ−(E2)
Δ+(E1 < E2)   = Δ±(E1) ∪ Δ±(E2)            Δ−(E1 < E2)   = Δ±(E1) ∪ Δ±(E2)
Δ+(A)         = {Δ+A}                      Δ−(A)         = {Δ−A}       (A primitive)
(the same rules hold at the object level ΔO under instance-oriented operators)
`
}

// Figure7 renders the simplification rules.
func Figure7() string {
	return `Figure 7 — Simplification Rules
{Δ+E, Δ−E}     → {Δ±E}            {Δ+O E, Δ−O E} → {Δ±O E}
{Δ+E, Δ+O E}   → {Δ+E}            {Δ−E, Δ−O E}   → {Δ−E}
{Δ+E, Δ−O E}   → {Δ±E}            {Δ−E, Δ+O E}   → {Δ±E}
{Δ±E, Δ*O E}   → {Δ±E}            (object-level folds into set-level)
`
}

// WorkedVariationExample reproduces the Section 5.1 derivation of
// V(E) for E = (A + B) , (C + -A) , (A += C) , (B <= A).
func WorkedVariationExample() (calculus.VarSet, string) {
	A := calculus.P(event.Create("a"))
	B := calculus.P(event.Create("b"))
	C := calculus.P(event.Create("c"))
	e := calculus.Disj(
		calculus.Disj(
			calculus.Disj(
				calculus.Conj(A, B),
				calculus.Conj(C, calculus.Neg(A)),
			),
			calculus.ConjI(A, C),
		),
		calculus.PrecI(B, A),
	)
	raw := calculus.DerivePos(e)
	v := calculus.Simplify(raw)
	var sb strings.Builder
	sb.WriteString("Section 5.1 worked example\n")
	fmt.Fprintf(&sb, "E      = %s\n", e)
	fmt.Fprintf(&sb, "Δ+(E)  = %s\n", raw)
	fmt.Fprintf(&sb, "V(E)   = %s\n", v)
	return v, sb.String()
}

// TimelineX1 renders the Section 3.1 set-oriented worked timelines.
func TimelineX1() string {
	cs := calculus.P(event.Create("stock"))
	mq := calculus.P(event.Modify("stock", "quantity"))
	b := event.NewBase()
	b.Append(event.Create("stock"), 1, 10)
	b.Append(event.Create("stock"), 2, 20)
	b.Append(event.Modify("stock", "quantity"), 1, 30)
	env := &calculus.Env{Base: b}
	exprs := []struct {
		label string
		e     calculus.Expr
	}{
		{"create(stock)", cs},
		{"disjunction  ", calculus.Disj(cs, mq)},
		{"conjunction  ", calculus.Conj(cs, mq)},
		{"negation     ", calculus.Neg(cs)},
		{"precedence   ", calculus.Prec(cs, mq)},
	}
	var sb strings.Builder
	sb.WriteString("Section 3.1 timelines — create(stock)@t1=10 on o1, @t2=20 on o2, modify(stock.quantity)@t3=30 on o1\n")
	sb.WriteString("            t:   5   15   25   35\n")
	for _, x := range exprs {
		sb.WriteString(x.label + ":")
		for _, t := range []clock.Time{5, 15, 25, 35} {
			v := env.TS(x.e, t)
			sb.WriteString(fmt.Sprintf(" %4d", int64(v)))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TimelineX2 renders the Section 3.2 instance-oriented contrasts.
func TimelineX2() string {
	cs := calculus.P(event.Create("stock"))
	mq := calculus.P(event.Modify("stock", "quantity"))
	ms := calculus.P(event.Modify("show", "quantity"))
	b := event.NewBase()
	b.Append(event.Create("stock"), 1, 10)
	b.Append(event.Modify("stock", "quantity"), 2, 20)
	b.Append(event.Modify("show", "quantity"), 7, 30)
	env := &calculus.Env{Base: b}
	at := clock.Time(35)
	var sb strings.Builder
	sb.WriteString("Section 3.2 contrasts — create(stock) on o1, modify(stock.quantity) on o2, modify(show.quantity) on o7\n")
	rows := []struct {
		label string
		e     calculus.Expr
	}{
		{"show + (create + modify)    [set conj]      ", calculus.Conj(ms, calculus.Conj(cs, mq))},
		{"show + (create += modify)   [instance conj] ", calculus.Conj(ms, calculus.ConjI(cs, mq))},
		{"show + -(create + modify)   [set negation]  ", calculus.Conj(ms, calculus.Neg(calculus.Conj(cs, mq)))},
		{"show + -=(create += modify) [inst negation] ", calculus.Conj(ms, calculus.NegI(calculus.ConjI(cs, mq)))},
		{"show + (create < modify)    [set precedence]", calculus.Conj(ms, calculus.Prec(cs, mq))},
		{"show + (create <= modify)   [inst precedence]", calculus.Conj(ms, calculus.PrecI(cs, mq))},
	}
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%s active at t=35: %v\n", r.label, env.Active(r.e, at)))
	}
	return sb.String()
}

// All returns every figure id in order with its rendering.
func All() []struct{ ID, Text string } {
	_, f3 := Figure3()
	_, f5 := Figure5()
	_, x6 := WorkedVariationExample()
	return []struct{ ID, Text string }{
		{"1", Figure1()},
		{"2", Figure2()},
		{"3", f3},
		{"4", Figure4()},
		{"5", f5},
		{"6", Figure6()},
		{"7", Figure7()},
		{"x1", TimelineX1()},
		{"x2", TimelineX2()},
		{"x4", ExampleX4()},
		{"x6", x6},
	}
}

// ExampleX4 runs the paper's Section 2 checkStockQty scenario through
// the full engine with a tracer attached and returns the annotated
// transcript — the executable version of the paper's narrative ("all the
// objects created and not checked yet by the rule are processed together
// in a single rule execution").
func ExampleX4() string {
	var sb strings.Builder
	db := engine.New(engine.DefaultOptions())
	db.SetTracer(engine.WriterTracer{W: &sb})
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt}); err != nil {
		panic(err)
	}
	r, err := lang.ParseRule(`
define immediate checkStockQty for stock
events create
condition stock(S), occurred(create, S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end`)
	if err != nil {
		panic(err)
	}
	if err := db.DefineRule(r.Def, engine.Body{Condition: r.Condition, Action: r.Action}); err != nil {
		panic(err)
	}
	sb.WriteString("Section 2 example — checkStockQty (set-oriented execution)\n")
	err = db.Run(func(tx *engine.Txn) error {
		for _, item := range []struct {
			name string
			qty  int64
		}{{"bolts", 99}, {"nuts", 10}, {"washers", 77}} {
			if _, err := tx.Create("stock", map[string]types.Value{
				"name": types.String_(item.name), "quantity": types.Int(item.qty),
				"maxquantity": types.Int(40)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	oids, _ := db.Store().Select("stock")
	for _, oid := range oids {
		o, _ := db.Store().Get(oid)
		fmt.Fprintf(&sb, "%s\n", o)
	}
	fmt.Fprintf(&sb, "rule executions: %d (both violators clamped together)\n",
		db.Stats().RuleExecutions)
	return sb.String()
}
