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
// A binding is a row of values, one column per variable: an evaluation
// lays out the slot table of its formula, and keeps the slot table and
// the rows in buffers its Ctx reuses, so that once they have grown a
// consideration allocates nothing.
//
// The event formulas are answered by calculus.PlanEval, the evaluator
// that decides triggering, over the plan Formula.Intern compiled their
// expressions into once, when the rule was defined. They are:
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

// Binding is one row of a condition's bindings. Column i holds the value
// of the variable the slot table names i (see Ctx.Slot): a types.Ref for
// an object variable, a types.TimeVal for a time variable, Null while the
// variable is unbound. A row shorter than the slot table leaves the
// columns past its end unbound: the empty binding is the empty row. Rows
// are read-only. Those an evaluation returns live in its Ctx and are
// valid until the Ctx evaluates again.
type Binding []types.Value

// Get returns the value of column slot, and false if the row leaves it
// unbound; slot -1 stands for a variable the formula never binds.
func (b Binding) Get(slot int) (types.Value, bool) {
	if slot < 0 || slot >= len(b) || b[slot].IsNull() {
		return types.Null, false
	}
	return b[slot], true
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
// consumption instant, At the consideration instant). A Ctx may outlive
// the store view and the base: set them before each evaluation.
type Ctx struct {
	Store StoreView
	Base  *event.Base
	Since clock.Time
	At    clock.Time
	// Budget, when non-nil, is charged by every calculus evaluation the
	// condition performs: one unit per node the evaluator computes.
	Budget *calculus.Budget

	// State recycled across evaluations; the zero value is ready. It
	// makes a Ctx stateful: one Ctx serves one goroutine.
	//
	// eval answers the event atoms, over the plan their formula was
	// interned into; it is built when the Ctx first meets that plan. wins
	// holds the windows of the event atoms the running Formula.Eval has
	// scanned, ext the extension a class atom is enumerating, times an
	// at() atom's activation instants. names is the slot table of the
	// rows. empty lists the empty row an evaluation starts from, and gen
	// holds the rows atoms generate in two generations: a generating atom
	// reads the rows of one and writes those of the other, gen[next]. oids
	// is the set OIDSet hands out.
	eval  *calculus.PlanEval
	wins  []window
	ext   []types.OID
	times []clock.Time
	names []string
	empty [1]Binding
	gen   [2]rowBuf
	next  int
	oids  map[types.OID]bool
}

// Slot returns the column of the variable name in the rows of the formula
// ctx is evaluating or last evaluated (or of the last Seed), and -1 if
// that formula binds no such variable.
func (c *Ctx) Slot(name string) int { return slices.Index(c.names, name) }

// bind adds the variable name, which an atom binds, to the slot table
// unless it is there already.
func (c *Ctx) bind(name string) {
	if !slices.Contains(c.names, name) {
		c.names = append(c.names, name)
	}
}

// column is Slot for an atom evaluated on its own, which can only read
// and write the columns its input rows have.
func (c *Ctx) column(name string) (int, error) {
	if i := c.Slot(name); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("cond: variable %s has no column in the rows", name)
}

// Seed starts ctx's rows over the one-variable slot table {v}: one row
// per object of oids, binding v to it, for atoms to run over on their own
// (Atom.Eval). The rows are valid until ctx evaluates again.
func (c *Ctx) Seed(v string, oids []types.OID) []Binding {
	b := c.start()
	c.bind(v)
	for _, oid := range oids {
		b.add(1)[0] = types.Ref(oid)
	}
	return b.rows
}

// OIDSet returns ctx's scratch object set, emptied. An action statement
// that acts once per object records in it the objects it has done; the
// set is valid until the next call.
func (c *Ctx) OIDSet() map[types.OID]bool {
	if c.oids == nil {
		c.oids = make(map[types.OID]bool)
	}
	clear(c.oids)
	return c.oids
}

// start begins a set of rows in the first generation, with an empty slot
// table for the caller to fill, and returns it empty.
func (c *Ctx) start() *rowBuf {
	c.names, c.next = c.names[:0], 1
	b := &c.gen[0]
	b.reset()
	return b
}

// extend appends to the generation b a copy of row as wide as the slot
// table, the columns past row's end unbound, and returns it.
func (c *Ctx) extend(b *rowBuf, row Binding) Binding {
	r := b.add(len(c.names))
	clear(r[copy(r, row):])
	return r
}

// generate returns the generation the running rows are not in, empty, for
// a generating atom to write its rows to.
func (c *Ctx) generate() *rowBuf {
	b := &c.gen[c.next]
	c.next ^= 1
	b.reset()
	return b
}

// rowBuf is one generation of rows, all of one width: their cells, row
// after row, and the rows as slices of the cells.
type rowBuf struct {
	cells []types.Value
	rows  []Binding
}

func (b *rowBuf) reset() { b.cells, b.rows = b.cells[:0], b.rows[:0] }

// add appends a row of width w and returns it. Its cells hold whatever
// they held before: the caller overwrites every one.
func (b *rowBuf) add(w int) Binding {
	n := len(b.cells)
	if n+w > cap(b.cells) {
		// The rows move with the cells, so that the array a generation
		// keeps for the next evaluation holds all of its rows. Both grow
		// as append grows a slice, from room for eight rows.
		b.cells = slices.Grow(b.cells, 8*w)
		for i := range b.rows {
			b.rows[i] = b.cells[i*w : (i+1)*w : (i+1)*w]
		}
	}
	if len(b.rows) == cap(b.rows) {
		b.rows = slices.Grow(b.rows, 8)
	}
	b.cells = b.cells[:n+w]
	r := Binding(b.cells[n : n+w : n+w])
	b.rows = append(b.rows, r)
	return r
}

// root is the expression of an occurred or at atom as Formula.Intern
// left it: the plan it is interned into and its root there. The zero root
// is an expression never interned.
type root struct {
	plan *calculus.Plan
	id   calculus.NodeID
}

// intern validates e and interns it into plan.
func intern(plan *calculus.Plan, e calculus.Expr) (root, error) {
	if err := calculus.Valid(e); err != nil {
		return root{}, err
	}
	return root{plan, plan.Intern(e)}, nil
}

// release gives back the reference intern took.
func (r root) release() {
	if r.plan != nil {
		r.plan.Release(r.id)
	}
}

// Detach clears the context's references to a transaction line — the
// store view, the event base, the budget, and the base its evaluator is
// bound to — and keeps its scratch: an idle context keeps no
// transaction's state alive.
func (c *Ctx) Detach() {
	c.Store, c.Base, c.Budget = nil, nil, nil
	if c.eval != nil {
		c.eval.Unbind()
	}
}

// evaluator returns ctx's evaluator of r's plan, bound to the observed
// window, building it when ctx first meets that plan.
func (c *Ctx) evaluator(r root) (*calculus.PlanEval, error) {
	if r.plan == nil {
		return nil, fmt.Errorf("cond: event formula not interned (see Formula.Intern)")
	}
	if c.eval == nil || c.eval.Plan() != r.plan {
		c.eval = calculus.NewPlanEval(r.plan)
	}
	c.eval.Budget = c.Budget
	c.eval.Bind(c.Base, c.Since)
	return c.eval, nil
}

// window is the part of an event atom that depends on the Ctx alone,
// never on the incoming bindings: the objects it generates for an unbound
// variable, and the objects it can accept for a bound one. Computing it
// once per evaluation lets an earlier class atom enumerate it and the
// event atom then filter by it.
type window struct {
	// atom is the event atom's position in the formula, and eval the
	// evaluator that scanned it.
	atom int
	eval *calculus.PlanEval
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

// bind is the binding step of an exact window (occurred, holds): a row
// that binds column v is kept if the window has its object, one that
// does not ranges over the window in generation order.
func (w *window) bind(ctx *Ctx, v int, in []Binding) ([]Binding, error) {
	has := func(x types.Value) (bool, error) {
		if x.Kind() != types.KindOID {
			return false, nil
		}
		_, ok := slices.BinarySearch(w.sorted, x.AsOID())
		return ok, nil
	}
	return ctx.bindObjects(v, in, has, func() ([]types.OID, error) { return w.order, nil })
}

// eventAtom is an event formula — occurred, at, holds: an atom over one
// object variable whose candidates depend only on the Ctx.
type eventAtom interface {
	Atom
	objVar() string
	// scan computes the atom's window.
	scan(ctx *Ctx, w *window) error
	// bind filters and extends in by a scanned window; v is the column of
	// the object variable, t that of at()'s time variable.
	bind(ctx *Ctx, w *window, v, t int, in []Binding) ([]Binding, error)
}

// columns returns the columns of an event atom's object variable and of
// at()'s time variable (-1 for the others).
func (c *Ctx) columns(a eventAtom) (v, t int, err error) {
	if v, err = c.column(a.objVar()); err != nil {
		return -1, -1, err
	}
	t = -1
	if at, ok := a.(At); ok {
		t, err = c.column(at.TimeVar)
	}
	return v, t, err
}

// evalEvent is an event atom evaluated on its own, outside a Formula,
// over rows laid out by ctx's slot table.
func evalEvent(a eventAtom, ctx *Ctx, in []Binding) ([]Binding, error) {
	v, t, err := ctx.columns(a)
	if err != nil {
		return nil, err
	}
	var w window
	if err := a.scan(ctx, &w); err != nil {
		return nil, err
	}
	return a.bind(ctx, &w, v, t, in)
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
	Eval(ctx *Ctx, row Binding) (types.Value, error)
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

// Eval reads the variable's column, found by name in ctx's slot table.
func (t Var) Eval(ctx *Ctx, row Binding) (types.Value, error) {
	v, ok := row.Get(ctx.Slot(t.Name))
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

// Eval dereferences the object in the variable's column, found by name in
// ctx's slot table, and reads the attribute.
func (t Attr) Eval(ctx *Ctx, row Binding) (types.Value, error) {
	v, ok := row.Get(ctx.Slot(t.Var))
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
func (t Arith) Eval(ctx *Ctx, row Binding) (types.Value, error) {
	l, err := t.L.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	r, err := t.R.Eval(ctx, row)
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

// Atom is one conjunct of a condition: it filters and extends rows laid
// out by the slot table of the formula it belongs to (Ctx.Slot finds a
// column). Eval owns in: an atom that only filters returns a prefix of
// in's backing array, so the caller must not read in afterwards.
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
	v, err := ctx.column(a.Var)
	if err != nil {
		return nil, err
	}
	return a.eval(ctx, v, in, nil, false)
}

// eval is Eval of column v with the enumeration optionally restricted to
// candidates (ascending, duplicate-free): the caller guarantees a later
// atom rejects every object outside them, so the rows that survive the
// conjunction are those of the unrestricted enumeration, in the same
// order.
func (a Class) eval(ctx *Ctx, v int, in []Binding, candidates []types.OID, restricted bool) ([]Binding, error) {
	cls, found := ctx.Store.Schema().Class(a.Class)
	member := func(x types.Value) (bool, error) {
		if x.Kind() != types.KindOID {
			return false, fmt.Errorf("cond: %s is not an object variable", a.Var)
		}
		o, ok := ctx.Store.Get(x.AsOID())
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
	return ctx.bindObjects(v, in, member, extension)
}

func (a Class) unknown() error { return fmt.Errorf("cond: unknown class %q", a.Class) }

// bindObjects is the binding step the atoms over an object variable
// share. A row that binds column v is kept if keep accepts its value; one
// that does not is replaced by its extensions to each of objects(), in
// order. Filtering compacts in in place; generating copies every row it
// keeps or extends into the next generation.
func (c *Ctx) bindObjects(v int, in []Binding,
	keep func(types.Value) (bool, error), objects func() ([]types.OID, error)) ([]Binding, error) {
	out := in[:0]
	var gen *rowBuf
	var oids []types.OID
	for _, row := range in {
		if x, bound := row.Get(v); bound {
			ok, err := keep(x)
			if err != nil {
				return nil, err
			}
			switch {
			case !ok:
			case gen == nil:
				out = append(out, row)
			default:
				c.extend(gen, row)
			}
			continue
		}
		if gen == nil {
			var err error
			if oids, err = objects(); err != nil {
				return nil, err
			}
			gen = c.generate()
			for _, kept := range out {
				c.extend(gen, kept)
			}
		}
		for _, oid := range oids {
			c.extend(gen, row)[v] = types.Ref(oid)
		}
	}
	if gen != nil {
		return gen.rows, nil
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
	root  root
}

// Eval binds or filters X by the affected-object set.
func (a Occurred) Eval(ctx *Ctx, in []Binding) ([]Binding, error) { return evalEvent(a, ctx, in) }

func (a Occurred) objVar() string { return a.Var }

func (a Occurred) scan(ctx *Ctx, w *window) error {
	ev, err := ctx.evaluator(a.root)
	if err != nil {
		return err
	}
	w.order = ev.AffectedObjects(w.order[:0], a.root.id, ctx.At, ctx.Since)
	w.setSorted()
	return nil
}

func (a Occurred) bind(ctx *Ctx, w *window, v, _ int, in []Binding) ([]Binding, error) {
	return w.bind(ctx, v, in)
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
	root    root
}

// Eval binds (X, T) pairs.
func (a At) Eval(ctx *Ctx, in []Binding) ([]Binding, error) { return evalEvent(a, ctx, in) }

func (a At) objVar() string { return a.Var }

// scan lists the affected objects an unbound X ranges over. A bound X is
// accepted whenever an occurrence of E arose for it at some instant of
// the window, whether or not E is still active for it at the end; unless
// E is vacuously active that takes an occurrence of one of E's own
// primitive types, so the objects those touched, which the same fold
// hands out, bound the window.
func (a At) scan(ctx *Ctx, w *window) error {
	var err error
	if w.eval, err = ctx.evaluator(a.root); err != nil {
		return err
	}
	if w.bounded = !calculus.VacuouslyActive(a.Event); w.bounded {
		w.order, w.buf = w.eval.AffectedWindow(w.order[:0], w.buf[:0], a.root.id, ctx.At, ctx.Since)
	} else {
		w.order = w.eval.AffectedObjects(w.order[:0], a.root.id, ctx.At, ctx.Since)
	}
	w.sorted = w.buf
	return nil
}

// bind extends every row by the (X, T) pairs of its candidates into the
// next generation, writing X's column and then T's.
func (a At) bind(ctx *Ctx, w *window, v, t int, in []Binding) ([]Binding, error) {
	gen := ctx.generate()
	for _, row := range in {
		candidates := w.order
		if x, bound := row.Get(v); bound {
			if x.Kind() != types.KindOID {
				return nil, fmt.Errorf("cond: %s is not an object variable", a.Var)
			}
			candidates = []types.OID{x.AsOID()}
		}
		for _, oid := range candidates {
			ctx.times = w.eval.ActivationTimes(ctx.times[:0], a.root.id, ctx.At, ctx.Since, oid)
			for _, ts := range ctx.times {
				r := ctx.extend(gen, row)
				r[v] = types.Ref(oid)
				r[t] = types.TimeVal(ts)
			}
		}
	}
	return gen.rows, nil
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

// Eval keeps the rows satisfying the comparison. A row whose terms
// cannot be evaluated (e.g. an attribute of a meanwhile-deleted object)
// is an error: conditions are expected to guard object variables with a
// class atom.
func (a Compare) Eval(ctx *Ctx, in []Binding) ([]Binding, error) {
	out := in[:0]
	for _, row := range in {
		l, err := a.L.Eval(ctx, row)
		if err != nil {
			return nil, err
		}
		r, err := a.R.Eval(ctx, row)
		if err != nil {
			return nil, err
		}
		ok, err := compare(l, a.Op, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
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

// Intern compiles f's event formulas once, for every evaluation to come:
// it validates (calculus.Valid) the expression of each occurred and at
// atom and interns it into plan, and returns a copy of f whose atoms hold
// their roots there. It is the only way such an atom becomes evaluable;
// f itself is left as it was. On the first invalid expression it fails
// and interns nothing. Release gives the references back.
func (f Formula) Intern(plan *calculus.Plan) (Formula, error) {
	atoms := slices.Clone(f.Atoms)
	for i, a := range atoms {
		var err error
		switch a := a.(type) {
		case Occurred:
			a.root, err = intern(plan, a.Event)
			atoms[i] = a
		case At:
			a.root, err = intern(plan, a.Event)
			atoms[i] = a
		}
		if err != nil {
			Formula{Atoms: atoms[:i]}.Release()
			return Formula{}, fmt.Errorf("%s: %w", a, err)
		}
	}
	return Formula{Atoms: atoms}, nil
}

// Release gives back the references Intern took for f's event formulas.
func (f Formula) Release() {
	for _, a := range f.Atoms {
		switch a := a.(type) {
		case Occurred:
			a.root.release()
		case At:
			a.root.release()
		}
	}
}

// Eval returns every satisfying binding — the rows, in the order, of
// running the atoms left to right from the empty row; the condition
// succeeds if at least one survives. Column i of the rows holds the i-th
// variable an atom binds, in the order the atoms first bind them (Ctx.Slot
// finds it). The rows live in ctx and are valid until ctx evaluates again:
// a generating atom writes its rows into the one of ctx's two generations
// the rows it reads are not in, and filters compact the list they are
// given.
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
	ctx.start()
	for _, a := range f.Atoms {
		switch a := a.(type) {
		case Class:
			ctx.bind(a.Var)
		case eventAtom:
			ctx.bind(a.objVar())
			if at, ok := a.(At); ok {
				ctx.bind(at.TimeVar)
			}
		}
	}
	ctx.wins = ctx.wins[:0]
	ctx.empty[0] = nil
	rows := ctx.empty[:]
	for i, a := range f.Atoms {
		var err error
		switch a := a.(type) {
		case Class:
			candidates, restricted := f.candidates(ctx, i, a.Var, rows[0])
			rows, err = a.eval(ctx, ctx.Slot(a.Var), rows, candidates, restricted)
		case eventAtom:
			var w *window
			if w, err = ctx.window(i, a); err == nil {
				// The slot table has a column for every variable it binds.
				v, t, _ := ctx.columns(a)
				rows, err = a.bind(ctx, w, v, t, rows)
			}
		default:
			rows, err = a.Eval(ctx, rows)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		if len(rows) == 0 {
			return nil, nil
		}
	}
	return rows, nil
}

// candidates returns the window a class atom at position i may enumerate
// in place of its extension to generate v: that of the first bounded
// event atom on v after it. An event atom that cannot be scanned bounds
// nothing; it reports its error in its own turn.
func (f Formula) candidates(ctx *Ctx, i int, v string, first Binding) ([]types.OID, bool) {
	if _, bound := first.Get(ctx.Slot(v)); bound {
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
