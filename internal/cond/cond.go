// Package cond implements the condition part of Chimera rules: logical
// formulas that query the database and the event base, producing the
// variable bindings the action part consumes (Section 2 and Section 3.3
// of the paper).
//
// A condition is a conjunction of atoms over a growing set of bindings,
// Datalog-style:
//
//	stock(S), occurred(create(stock), S), S.quantity > S.maxquantity
//
// Its bindings, and their order, are those of evaluating the atoms left
// to right. Its cost is not: a class atom that generates a variable a
// later event formula filters enumerates that formula's candidates
// instead of the class extension (see Formula.Eval), so a consideration
// costs O(objects the window affected), not O(extension).
//
// The event formulas are:
//
//   - occurred(E, X): binds X to the objects affected by the
//     instance-oriented event expression E within the observed window;
//   - at(E, X, T): additionally binds T to every activation time stamp of
//     E for X (Section 3.3's "occurrence time stamp" predicate);
//   - holds(op(class), X): the legacy net-effect predicate kept for
//     backward compatibility (footnote 2 notes the calculus subsumes it).
package cond

import (
	"fmt"
	"slices"
	"strings"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Binding maps variable names to values. Object variables hold
// types.Ref values; time variables hold types.TimeVal values.
type Binding map[string]types.Value

// clone copies a binding before extension.
func (b Binding) clone() Binding {
	c := make(Binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// StoreView is the read face of the object store a condition evaluates
// against. The plain *object.Store serves the single-session engine; an
// *object.Line serves a concurrent transaction line, taking shared
// latches on every object and class extension the condition touches so
// the bindings stay stable to the end of the line.
type StoreView interface {
	Get(oid types.OID) (*object.Object, bool)
	Select(class string) ([]types.OID, error)
	Schema() *schema.Schema
}

// Ctx is the evaluation context of a condition: the object store view,
// the event base, and the observed window (Since is the rule's last
// consumption instant, At the consideration instant).
type Ctx struct {
	Store StoreView
	Base  *event.Base
	Since clock.Time
	At    clock.Time
	// Budget, when non-nil, is charged by every calculus evaluation the
	// condition performs (event atoms re-entering the TS/OTS machinery).
	Budget *calculus.Budget

	// Scratch recycled across evaluations; the zero value is ready. It
	// makes a Ctx stateful: one Ctx serves one goroutine.
	//
	// calc is the one calculus environment every event atom evaluates in
	// (its buffers grow once), wins holds the windows of the event atoms
	// the running Formula.Eval has scanned, ext the extension a class atom
	// is enumerating, seed the binding list Formula.Eval starts from.
	calc calculus.Env
	wins []window
	ext  []types.OID
	seed [1]Binding
}

// env returns the calculus environment of the observed window.
func (c *Ctx) env() *calculus.Env {
	e := &c.calc
	e.Base, e.Since, e.RestrictDomain, e.Budget = c.Base, c.Since, true, c.Budget
	return e
}

// window is the part of an event atom that depends on the Ctx alone,
// never on the incoming bindings: the objects it generates for an unbound
// variable, and the objects it can accept for a bound one. Computing it
// once per evaluation lets an earlier class atom enumerate it and the
// event atom then filter by it.
type window struct {
	// atom is the event atom's position in the formula.
	atom int
	// order lists the objects the atom binds an unbound variable to, in
	// generation order, without duplicates.
	order []types.OID
	// sorted is, when bounded, an ascending duplicate-free superset of the
	// objects the atom accepts for a bound variable; for occurred and
	// holds it is exactly order's set. It aliases order or buf.
	sorted  []types.OID
	bounded bool
	buf     []types.OID
}

// setSorted makes sorted the ascending image of order.
func (w *window) setSorted() {
	w.bounded = true
	w.sorted = w.order
	if !slices.IsSorted(w.order) {
		w.buf = append(w.buf[:0], w.order...)
		slices.Sort(w.buf)
		w.sorted = w.buf
	}
}

// bind is the binding step of an exact window (occurred, holds): a bound
// variable is kept if the window has its object, an unbound one ranges
// over the window in generation order.
func (w *window) bind(v string, in []Binding) ([]Binding, error) {
	has := func(x types.Value) (bool, error) {
		if x.Kind() != types.KindOID {
			return false, nil
		}
		_, ok := slices.BinarySearch(w.sorted, x.AsOID())
		return ok, nil
	}
	return bindObjects(v, in, has, func() ([]types.OID, error) { return w.order, nil })
}

// eventAtom is an event formula — occurred, at, holds: an atom over one
// object variable whose candidates depend only on the Ctx.
type eventAtom interface {
	Atom
	objVar() string
	// scan computes the atom's window.
	scan(ctx *Ctx, w *window) error
	// bind filters and extends in by a scanned window.
	bind(ctx *Ctx, w *window, in []Binding) ([]Binding, error)
}

// evalEvent is an event atom evaluated on its own, outside a Formula.
func evalEvent(a eventAtom, ctx *Ctx, in []Binding) ([]Binding, error) {
	var w window
	if err := a.scan(ctx, &w); err != nil {
		return nil, err
	}
	return a.bind(ctx, &w, in)
}

// window returns the window of the event atom at position i of the
// running formula, scanning it on first use.
func (c *Ctx) window(i int, a eventAtom) (*window, error) {
	for k := range c.wins {
		if c.wins[k].atom == i {
			return &c.wins[k], nil
		}
	}
	if n := len(c.wins); n < cap(c.wins) {
		c.wins = c.wins[:n+1] // reuse the slot's buffers
	} else {
		c.wins = append(c.wins, window{})
	}
	w := &c.wins[len(c.wins)-1]
	w.atom = i
	if err := a.scan(c, w); err != nil {
		c.wins = c.wins[:len(c.wins)-1]
		return nil, err
	}
	return w, nil
}

// Term evaluates to a value under a binding.
type Term interface {
	fmt.Stringer
	Eval(ctx *Ctx, env Binding) (types.Value, error)
}

// Const is a literal value.
type Const struct{ V types.Value }

// Eval returns the literal.
func (t Const) Eval(*Ctx, Binding) (types.Value, error) { return t.V, nil }

// String renders the literal.
func (t Const) String() string { return t.V.String() }

// Var references a bound variable directly (an object reference or a
// time stamp).
type Var struct{ Name string }

// Eval looks the variable up.
func (t Var) Eval(_ *Ctx, env Binding) (types.Value, error) {
	v, ok := env[t.Name]
	if !ok {
		return types.Null, fmt.Errorf("cond: unbound variable %s", t.Name)
	}
	return v, nil
}

// String renders the variable name.
func (t Var) String() string { return t.Name }

// Attr reads an attribute of the object a variable is bound to
// (S.quantity).
type Attr struct {
	Var  string
	Attr string
}

// Eval dereferences the object and reads the attribute.
func (t Attr) Eval(ctx *Ctx, env Binding) (types.Value, error) {
	v, ok := env[t.Var]
	if !ok {
		return types.Null, fmt.Errorf("cond: unbound variable %s", t.Var)
	}
	if v.Kind() != types.KindOID {
		return types.Null, fmt.Errorf("cond: %s is not an object variable", t.Var)
	}
	o, ok := ctx.Store.Get(v.AsOID())
	if !ok {
		return types.Null, fmt.Errorf("cond: %s is bound to deleted object %s", t.Var, v.AsOID())
	}
	return o.Get(t.Attr)
}

// String renders Var.Attr.
func (t Attr) String() string { return t.Var + "." + t.Attr }

// ArithOp is an arithmetic operator for Arith terms.
type ArithOp byte

// Arithmetic operators.
const (
	OpAdd ArithOp = '+'
	OpSub ArithOp = '-'
	OpMul ArithOp = '*'
	OpDiv ArithOp = '/'
)

// Arith is a binary arithmetic term over numeric values.
type Arith struct {
	Op   ArithOp
	L, R Term
}

// Eval computes the arithmetic result; integers stay integral unless
// mixed with floats or divided.
func (t Arith) Eval(ctx *Ctx, env Binding) (types.Value, error) {
	l, err := t.L.Eval(ctx, env)
	if err != nil {
		return types.Null, err
	}
	r, err := t.R.Eval(ctx, env)
	if err != nil {
		return types.Null, err
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return types.Null, fmt.Errorf("cond: arithmetic on non-numeric values %s, %s", l, r)
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt && t.Op != OpDiv {
		a, b := l.AsInt(), r.AsInt()
		switch t.Op {
		case OpAdd:
			return types.Int(a + b), nil
		case OpSub:
			return types.Int(a - b), nil
		case OpMul:
			return types.Int(a * b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch t.Op {
	case OpAdd:
		return types.Float(a + b), nil
	case OpSub:
		return types.Float(a - b), nil
	case OpMul:
		return types.Float(a * b), nil
	case OpDiv:
		if b == 0 {
			return types.Null, fmt.Errorf("cond: division by zero")
		}
		return types.Float(a / b), nil
	}
	return types.Null, fmt.Errorf("cond: unknown arithmetic operator %q", t.Op)
}

// String renders the arithmetic expression.
func (t Arith) String() string {
	return fmt.Sprintf("(%s %c %s)", t.L, t.Op, t.R)
}

// Atom is one conjunct of a condition: it filters and extends bindings.
// Eval owns in: an atom that only filters returns a prefix of in's
// backing array, so the caller must not read in afterwards.
type Atom interface {
	fmt.Stringer
	Eval(ctx *Ctx, in []Binding) ([]Binding, error)
}

// Class binds a variable over the live extension of a class
// (stock(S)), or — if already bound — checks membership.
type Class struct {
	Class string
	Var   string
}

// Eval enumerates or checks the class extension.
func (a Class) Eval(ctx *Ctx, in []Binding) ([]Binding, error) {
	return a.eval(ctx, in, nil, false)
}

// eval is Eval with the enumeration optionally restricted to candidates
// (ascending, duplicate-free): the caller guarantees a later atom rejects
// every object outside them, so the bindings that survive the conjunction
// are those of the unrestricted enumeration, in the same order.
func (a Class) eval(ctx *Ctx, in []Binding, candidates []types.OID, restricted bool) ([]Binding, error) {
	cls, found := ctx.Store.Schema().Class(a.Class)
	member := func(v types.Value) (bool, error) {
		if v.Kind() != types.KindOID {
			return false, fmt.Errorf("cond: %s is not an object variable", a.Var)
		}
		o, ok := ctx.Store.Get(v.AsOID())
		if !ok {
			return false, nil
		}
		if !found {
			return false, a.unknown()
		}
		return o.Class().IsA(cls), nil
	}
	extension := func() ([]types.OID, error) {
		if !found {
			return nil, a.unknown()
		}
		if !restricted {
			return ctx.Store.Select(a.Class)
		}
		ext := ctx.ext[:0]
		for _, oid := range candidates {
			if o, ok := ctx.Store.Get(oid); ok && o.Class().IsA(cls) {
				ext = append(ext, oid)
			}
		}
		ctx.ext = ext
		return ext, nil
	}
	return bindObjects(a.Var, in, member, extension)
}

func (a Class) unknown() error { return fmt.Errorf("cond: unknown class %q", a.Class) }

// bindObjects is the binding step the atoms over an object variable
// share. A binding that binds v is kept if keep accepts its value; one
// that does not is replaced by its extensions to each of objects(), in
// order. Filtering compacts in's array in place; generating writes more
// than it reads and moves to a fresh one.
func bindObjects(v string, in []Binding,
	keep func(types.Value) (bool, error), objects func() ([]types.OID, error)) ([]Binding, error) {
	out := in[:0]
	var oids []types.OID
	generating := false
	for i, env := range in {
		if x, bound := env[v]; bound {
			ok, err := keep(x)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, env)
			}
			continue
		}
		if !generating {
			generating = true
			var err error
			if oids, err = objects(); err != nil {
				return nil, err
			}
			out = append(make([]Binding, 0, len(out)+(len(in)-i)*len(oids)), out...)
		}
		for _, oid := range oids {
			b := env.clone()
			b[v] = types.Ref(oid)
			out = append(out, b)
		}
	}
	return out, nil
}

// String renders class(Var).
func (a Class) String() string { return fmt.Sprintf("%s(%s)", a.Class, a.Var) }

// Occurred is the occurred(E, X) event formula: X ranges over the
// objects affected by the instance-oriented expression E in the observed
// window.
type Occurred struct {
	Event calculus.Expr
	Var   string
}

// Eval binds or filters X by the affected-object set.
func (a Occurred) Eval(ctx *Ctx, in []Binding) ([]Binding, error) { return evalEvent(a, ctx, in) }

func (a Occurred) objVar() string { return a.Var }

func (a Occurred) scan(ctx *Ctx, w *window) error {
	if err := calculus.Valid(a.Event); err != nil {
		return err
	}
	w.order = ctx.env().AppendAffectedObjects(w.order[:0], a.Event, ctx.At)
	w.setSorted()
	return nil
}

func (a Occurred) bind(_ *Ctx, w *window, in []Binding) ([]Binding, error) {
	return w.bind(a.Var, in)
}

// String renders occurred(E, X).
func (a Occurred) String() string {
	return fmt.Sprintf("occurred(%s, %s)", a.Event, a.Var)
}

// At is the at(E, X, T) event formula of Section 3.3: for each object X
// affected by E it binds T to every instant at which an occurrence of E
// arises for X within the observed window.
type At struct {
	Event   calculus.Expr
	Var     string
	TimeVar string
}

// Eval binds (X, T) pairs.
func (a At) Eval(ctx *Ctx, in []Binding) ([]Binding, error) { return evalEvent(a, ctx, in) }

func (a At) objVar() string { return a.Var }

// scan lists the affected objects an unbound X ranges over. A bound X is
// accepted whenever an occurrence of E arose for it at some instant of
// the window, whether or not E is still active for it at the end; unless
// E is vacuously active that takes an occurrence of one of E's own
// primitive types, so the objects those touched bound the window.
func (a At) scan(ctx *Ctx, w *window) error {
	if err := calculus.Valid(a.Event); err != nil {
		return err
	}
	w.order = ctx.env().AppendAffectedObjects(w.order[:0], a.Event, ctx.At)
	if w.bounded = !calculus.VacuouslyActive(a.Event); w.bounded {
		w.buf = ctx.Base.AppendOIDsOfTypes(w.buf[:0], calculus.Primitives(a.Event), ctx.Since, ctx.At)
		w.sorted = w.buf
	}
	return nil
}

func (a At) bind(ctx *Ctx, w *window, in []Binding) ([]Binding, error) {
	env0 := ctx.env()
	var out []Binding
	for _, env := range in {
		candidates := w.order
		if v, bound := env[a.Var]; bound {
			if v.Kind() != types.KindOID {
				return nil, fmt.Errorf("cond: %s is not an object variable", a.Var)
			}
			candidates = []types.OID{v.AsOID()}
		}
		for _, oid := range candidates {
			for _, ts := range env0.ActivationTimes(a.Event, ctx.At, oid) {
				ext := env.clone()
				ext[a.Var] = types.Ref(oid)
				ext[a.TimeVar] = types.TimeVal(ts)
				out = append(out, ext)
			}
		}
	}
	return out, nil
}

// String renders at(E, X, T).
func (a At) String() string {
	return fmt.Sprintf("at(%s, %s, %s)", a.Event, a.Var, a.TimeVar)
}

// CmpOp is a comparison operator.
type CmpOp string

// Comparison operators.
const (
	CmpEq CmpOp = "="
	CmpNe CmpOp = "!="
	CmpLt CmpOp = "<"
	CmpLe CmpOp = "<="
	CmpGt CmpOp = ">"
	CmpGe CmpOp = ">="
)

// Compare filters bindings by comparing two terms.
type Compare struct {
	L  Term
	Op CmpOp
	R  Term
}

// Eval keeps the bindings satisfying the comparison. A binding whose
// terms cannot be evaluated (e.g. an attribute of a meanwhile-deleted
// object) is an error: conditions are expected to guard object variables
// with a class atom.
func (a Compare) Eval(ctx *Ctx, in []Binding) ([]Binding, error) {
	out := in[:0]
	for _, env := range in {
		l, err := a.L.Eval(ctx, env)
		if err != nil {
			return nil, err
		}
		r, err := a.R.Eval(ctx, env)
		if err != nil {
			return nil, err
		}
		ok, err := compare(l, a.Op, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, env)
		}
	}
	return out, nil
}

func compare(l types.Value, op CmpOp, r types.Value) (bool, error) {
	switch op {
	case CmpEq:
		return l.Equal(r), nil
	case CmpNe:
		return !l.Equal(r), nil
	}
	c, err := l.Compare(r)
	if err != nil {
		return false, err
	}
	switch op {
	case CmpLt:
		return c < 0, nil
	case CmpLe:
		return c <= 0, nil
	case CmpGt:
		return c > 0, nil
	case CmpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("cond: unknown comparison %q", op)
}

// String renders L op R.
func (a Compare) String() string { return fmt.Sprintf("%s %s %s", a.L, a.Op, a.R) }

// Formula is the condition: a conjunction of atoms.
type Formula struct {
	Atoms []Atom
}

// Eval returns every satisfying binding — the bindings, in the order, of
// running the atoms left to right from the empty binding; the condition
// succeeds if at least one survives. The empty binding is nil, and a
// result that still consists of it (a formula of filters, or none) lives
// in ctx and is valid until ctx evaluates again: a binding is extended
// through clone only, and filters compact the list they are given.
//
// It runs them left to right too, with one shortcut. A class atom that
// generates its variable (nothing earlier binds it) ahead of an event
// atom on the same variable enumerates that atom's window — ascending,
// kept if live and of the class — instead of the class extension: the
// extension is ascending too, and the event atom would reject every
// object left out. The event atom then filters by the same window, which
// is computed once. What the shortcut does not preserve is an evaluation
// error an atom in between would have raised on an object left out.
func (f Formula) Eval(ctx *Ctx) ([]Binding, error) {
	ctx.wins = ctx.wins[:0]
	ctx.seed[0] = nil
	bindings := ctx.seed[:]
	for i, a := range f.Atoms {
		var err error
		switch a := a.(type) {
		case Class:
			candidates, restricted := f.candidates(ctx, i, a.Var, bindings[0])
			bindings, err = a.eval(ctx, bindings, candidates, restricted)
		case eventAtom:
			var w *window
			if w, err = ctx.window(i, a); err == nil {
				bindings, err = a.bind(ctx, w, bindings)
			}
		default:
			bindings, err = a.Eval(ctx, bindings)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	return bindings, nil
}

// candidates returns the window a class atom at position i may enumerate
// in place of its extension to generate v: that of the first bounded
// event atom on v after it. An event atom that cannot be scanned bounds
// nothing; it reports its error in its own turn.
func (f Formula) candidates(ctx *Ctx, i int, v string, first Binding) ([]types.OID, bool) {
	if _, bound := first[v]; bound {
		return nil, false
	}
	for j := i + 1; j < len(f.Atoms); j++ {
		if a, ok := f.Atoms[j].(eventAtom); ok && a.objVar() == v {
			if w, err := ctx.window(j, a); err == nil && w.bounded {
				return w.sorted, true
			}
		}
	}
	return nil, false
}

// String renders the comma-separated conjunction.
func (f Formula) String() string {
	parts := make([]string, len(f.Atoms))
	for i, a := range f.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// True is the empty condition (always satisfied, one empty binding).
var True = Formula{}
