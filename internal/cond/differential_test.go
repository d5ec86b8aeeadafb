package cond

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// The oracle: a condition is its atoms run strictly left to right, each
// atom written from its definition over bindings that map variable names
// to values — a class atom walks the whole class extension, every event
// atom recomputes its set per evaluation with the definition of the
// calculus (calculus.Env), nothing is shared and nothing is reused. A
// formula with an invalid event expression is no condition at all: its
// rule is rejected at definition. Formula.Intern must reject exactly
// those, with the oracle's error text, and production Formula.Eval of the
// interned formula must return the oracle's bindings in the oracle's
// order, its rows read through the slot table, and fail with the
// oracle's error text.

// env is the oracle's binding: variable names to values.
type env map[string]types.Value

// with is e extended by v = val.
func (e env) with(v string, val types.Value) env {
	ext := make(env, len(e)+1)
	for k, x := range e {
		ext[k] = x
	}
	ext[v] = val
	return ext
}

// envs reads production rows through ctx's slot table.
func envs(ctx *Ctx, rows []Binding) []env {
	if len(rows) == 0 {
		return nil
	}
	out := make([]env, len(rows))
	for i, row := range rows {
		out[i] = env{}
		for slot, name := range ctx.names {
			if v, ok := row.Get(slot); ok {
				out[i][name] = v
			}
		}
	}
	return out
}

// oracleValid is the definition-time check: the calculus.Valid error of
// the first occurred or at atom whose expression is invalid.
func oracleValid(f Formula) error {
	for _, a := range f.Atoms {
		var err error
		switch a := a.(type) {
		case Occurred:
			err = calculus.Valid(a.Event)
		case At:
			err = calculus.Valid(a.Event)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
	}
	return nil
}

func oracleEval(ctx *Ctx, f Formula) ([]env, error) {
	bindings := []env{{}}
	for _, a := range f.Atoms {
		var err error
		if bindings, err = oracleAtom(ctx, a, bindings); err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	return bindings, nil
}

func oracleEnv(ctx *Ctx) *calculus.Env {
	return &calculus.Env{Base: ctx.Base, Since: ctx.Since}
}

// oracleAffected is the definition's occurred() set in binding order:
// ascending by OID, unless e is vacuously active — then any object of the
// window may qualify, and they bind in order of first appearance.
func oracleAffected(ctx *Ctx, e calculus.Expr) []types.OID {
	objs := oracleEnv(ctx).AffectedObjects(e, ctx.At)
	if !calculus.VacuouslyActive(e) {
		slices.Sort(objs)
	}
	return objs
}

func oracleTerm(ctx *Ctx, t Term, e env) (types.Value, error) {
	switch t := t.(type) {
	case Const:
		return t.V, nil
	case Var:
		v, ok := e[t.Name]
		if !ok {
			return types.Null, fmt.Errorf("cond: unbound variable %s", t.Name)
		}
		return v, nil
	case Attr:
		v, ok := e[t.Var]
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
	case Arith:
		l, err := oracleTerm(ctx, t.L, e)
		if err != nil {
			return types.Null, err
		}
		r, err := oracleTerm(ctx, t.R, e)
		if err != nil {
			return types.Null, err
		}
		return Arith{Op: t.Op, L: Const{V: l}, R: Const{V: r}}.Eval(ctx, nil)
	}
	return types.Null, fmt.Errorf("oracle: unknown term %T", t)
}

func oracleAtom(ctx *Ctx, atom Atom, in []env) ([]env, error) {
	var out []env
	switch a := atom.(type) {
	case Class:
		cls, found := ctx.Store.Schema().Class(a.Class)
		for _, e := range in {
			if v, bound := e[a.Var]; bound {
				if v.Kind() != types.KindOID {
					return nil, fmt.Errorf("cond: %s is not an object variable", a.Var)
				}
				o, ok := ctx.Store.Get(v.AsOID())
				if !ok {
					continue
				}
				if !found {
					return nil, fmt.Errorf("cond: unknown class %q", a.Class)
				}
				if o.Class().IsA(cls) {
					out = append(out, e)
				}
				continue
			}
			if !found {
				return nil, fmt.Errorf("cond: unknown class %q", a.Class)
			}
			oids, err := ctx.Store.Select(a.Class)
			if err != nil {
				return nil, err
			}
			for _, oid := range oids {
				out = append(out, e.with(a.Var, types.Ref(oid)))
			}
		}
	case Occurred:
		affected := oracleAffected(ctx, a.Event)
		for _, e := range in {
			if v, bound := e[a.Var]; bound {
				for _, oid := range affected {
					if v.Kind() == types.KindOID && v.AsOID() == oid {
						out = append(out, e)
					}
				}
				continue
			}
			for _, oid := range affected {
				out = append(out, e.with(a.Var, types.Ref(oid)))
			}
		}
	case At:
		for _, e := range in {
			candidates := oracleAffected(ctx, a.Event)
			if v, bound := e[a.Var]; bound {
				if v.Kind() != types.KindOID {
					return nil, fmt.Errorf("cond: %s is not an object variable", a.Var)
				}
				candidates = []types.OID{v.AsOID()}
			}
			for _, oid := range candidates {
				for _, ts := range oracleEnv(ctx).ActivationTimes(a.Event, ctx.At, oid) {
					out = append(out, e.with(a.Var, types.Ref(oid)).with(a.TimeVar, types.TimeVal(ts)))
				}
			}
		}
	case Holds:
		want, ok := map[event.Op]NetKind{
			event.OpCreate: NetCreate, event.OpDelete: NetDelete, event.OpModify: NetModify,
		}[a.Event.Op]
		if !ok {
			return nil, fmt.Errorf("cond: holds supports create/delete/modify, got %s", a.Event.Op)
		}
		nets := NetEffects(ctx, a.Event.Class)
		matches := func(oid types.OID) bool {
			if k, ok := nets[oid]; !ok || k != want {
				return false
			}
			if a.Event.Op == event.OpModify && a.Event.Attr != "" {
				return len(ctx.Base.OccurrencesOfObj(a.Event, oid, ctx.Since, ctx.At)) > 0
			}
			return true
		}
		var candidates []types.OID
		seen := map[types.OID]bool{}
		for _, occ := range ctx.Base.Window(ctx.Since, ctx.At) {
			if occ.Type.Class == a.Event.Class && !seen[occ.OID] {
				seen[occ.OID] = true
				if matches(occ.OID) {
					candidates = append(candidates, occ.OID)
				}
			}
		}
		for _, e := range in {
			if v, bound := e[a.Var]; bound {
				if v.Kind() == types.KindOID && matches(v.AsOID()) {
					out = append(out, e)
				}
				continue
			}
			for _, oid := range candidates {
				out = append(out, e.with(a.Var, types.Ref(oid)))
			}
		}
	case Compare:
		for _, e := range in {
			l, err := oracleTerm(ctx, a.L, e)
			if err != nil {
				return nil, err
			}
			r, err := oracleTerm(ctx, a.R, e)
			if err != nil {
				return nil, err
			}
			ok, err := compare(l, a.Op, r)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, e)
			}
		}
	case touched:
		prims := calculus.Primitives(a.event)
		hit := map[types.OID]bool{}
		for _, occ := range ctx.Base.Window(ctx.Since, ctx.At) {
			if slices.Contains(prims, occ.Type) {
				hit[occ.OID] = true
			}
		}
		for _, e := range in {
			if hit[e[a.v].AsOID()] {
				out = append(out, e)
			}
		}
	default:
		return nil, fmt.Errorf("oracle: unknown atom %T", atom)
	}
	return out, nil
}

// touched is an oracle-only filter: the object of v has an occurrence of
// one of the expression's primitive types in the window.
type touched struct {
	event calculus.Expr
	v     string
}

func (a touched) String() string                        { return fmt.Sprintf("touched(%s, %s)", a.event, a.v) }
func (touched) Eval(*Ctx, []Binding) ([]Binding, error) { panic("oracle only") }

// declarative rewrites f into the formula whose left-to-right evaluation
// is what docs/SEMANTICS.md promises when the plain one raises an error:
// behind every class atom that generates its variable stands the filter
// of the first later event atom on that variable that bounds it. Filters
// are idempotent, so where the plain evaluation raises no error the two
// agree; they differ only by errors raised on objects the filter rejects.
func declarative(f Formula) Formula {
	var out []Atom
	bound := map[string]bool{}
	for i, a := range f.Atoms {
		out = append(out, a)
		switch a := a.(type) {
		case Class:
			if !bound[a.Var] {
				if flt := firstBound(f.Atoms[i+1:], a.Var); flt != nil {
					out = append(out, flt)
				}
			}
			bound[a.Var] = true
		case Occurred:
			bound[a.Var] = true
		case Holds:
			bound[a.Var] = true
		case At:
			bound[a.Var], bound[a.TimeVar] = true, true
		}
	}
	return Formula{Atoms: out}
}

func firstBound(later []Atom, v string) Atom {
	for _, a := range later {
		switch a := a.(type) {
		case Occurred:
			if a.Var == v {
				return a
			}
		case Holds:
			if op := a.Event.Op; a.Var == v && (op == event.OpCreate || op == event.OpDelete || op == event.OpModify) {
				return a
			}
		case At:
			if a.Var == v && !calculus.VacuouslyActive(a.Event) {
				return touched{event: a.Event, v: v}
			}
		}
	}
	return nil
}

// world is one randomized store and Event Base over a fixed schema:
// item ⊃ gadget ⊃ widget, and an unrelated crate.
type world struct {
	ctx  *Ctx
	oids []types.OID // every OID ever allocated, plus two never allocated
}

var worldPrims = []event.Type{
	event.Create("item"), event.Delete("item"), event.Modify("item", "n"), event.Modify("item", "m"),
	event.Create("gadget"), event.Modify("gadget", "g"), event.Delete("gadget"),
	event.T(event.OpSpecialize, "gadget"), event.T(event.OpGeneralize, "item"),
	event.Create("crate"), event.Modify("crate", "n"),
}

func randomWorld(t *testing.T, r *rand.Rand) world {
	t.Helper()
	s := schema.New()
	must := func(_ *schema.Class, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Define("item",
		schema.Attribute{Name: "n", Kind: types.KindInt},
		schema.Attribute{Name: "m", Kind: types.KindInt},
		schema.Attribute{Name: "tag", Kind: types.KindString}))
	must(s.DefineSub("gadget", "item", schema.Attribute{Name: "g", Kind: types.KindInt}))
	must(s.DefineSub("widget", "gadget", schema.Attribute{Name: "w", Kind: types.KindInt}))
	must(s.Define("crate", schema.Attribute{Name: "n", Kind: types.KindInt}))
	st := object.NewStore(s)
	ln := st.BeginLine(object.LineOptions{Solo: true})
	defer ln.Commit()

	classes := []string{"item", "item", "gadget", "widget", "crate"}
	var w world
	for i, n := 0, 1+r.Intn(24); i < n; i++ {
		class := classes[r.Intn(len(classes))]
		vals := map[string]types.Value{"n": types.Int(int64(r.Intn(6)))}
		if class != "crate" && r.Intn(4) > 0 { // m is sometimes null
			vals["m"] = types.Int(int64(r.Intn(6)))
		}
		oid, err := ln.Create(class, vals)
		if err != nil {
			t.Fatal(err)
		}
		w.oids = append(w.oids, oid)
	}
	for _, oid := range w.oids {
		o, _ := st.Get(oid)
		switch name := o.Class().Name(); r.Intn(8) {
		case 0:
			ln.Delete(oid) //nolint:errcheck // live by construction
		case 1:
			if name == "item" {
				ln.Specialize(oid, "gadget") //nolint:errcheck // a subclass by construction
			}
		case 2:
			if name == "widget" || name == "gadget" {
				ln.Generalize(oid, "item") //nolint:errcheck // a superclass by construction
			}
		}
	}
	w.oids = append(w.oids, st.NextOID()+1, st.NextOID()+2)

	b := event.NewBaseSize(8) // several segments
	ts := clock.Time(0)
	for i, n := 0, r.Intn(48); i < n; i++ {
		ts += clock.Time(1 + r.Intn(2))
		ty := worldPrims[r.Intn(len(worldPrims))]
		if _, err := b.Append(ty, w.oids[r.Intn(len(w.oids))], ts); err != nil {
			t.Fatal(err)
		}
	}
	since := clock.Time(r.Intn(int(ts) + 1))
	if r.Intn(3) == 0 {
		since = clock.Never
	}
	at := ts + clock.Time(r.Intn(3))
	if r.Intn(4) == 0 && ts > 0 {
		at = clock.Time(1 + r.Intn(int(ts)))
	}
	w.ctx = &Ctx{Store: st, Base: b, Since: since, At: at}
	return w
}

func randomExpr(r *rand.Rand, depth int) calculus.Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return calculus.P(worldPrims[r.Intn(len(worldPrims))])
	}
	l, rr := randomExpr(r, depth-1), randomExpr(r, depth-1)
	switch r.Intn(5) {
	case 0:
		return calculus.ConjI(l, rr)
	case 1:
		return calculus.DisjI(l, rr)
	case 2:
		return calculus.PrecI(l, rr)
	case 3:
		return calculus.NegI(l)
	}
	return calculus.Conj(l, rr) // set-oriented: valid only over primitives' own granularity
}

// randomFormula draws a conjunction over the object variables X, Y, Z
// and the time variables T, U. Now and then an object position names a
// time variable, a term names W, which nothing binds, and a class atom
// follows an event atom that already bound its variable.
func randomFormula(r *rand.Rand) Formula {
	vars := []string{"X", "Y", "Z"}[:1+r.Intn(3)]
	v := func() string {
		if r.Intn(12) == 0 {
			return "T"
		}
		return vars[r.Intn(len(vars))]
	}
	timeVar := func() string { return []string{"T", "T", "U"}[r.Intn(3)] }
	classes := []string{"item", "gadget", "widget", "crate", "item", "ghost"}
	class := func() string {
		if c := classes[r.Intn(len(classes))]; c != "ghost" || r.Intn(8) == 0 {
			return c
		}
		return "item"
	}
	attrs := []string{"n", "m", "g", "w", "tag"}
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	term := func() Term {
		switch r.Intn(7) {
		case 0, 1:
			return Const{V: types.Int(int64(r.Intn(6)))}
		case 2:
			return Var{Name: timeVar()}
		case 3:
			return Arith{Op: OpDiv, L: Const{V: types.Int(6)}, R: Attr{Var: v(), Attr: "n"}}
		case 4:
			if r.Intn(3) == 0 {
				return Var{Name: "W"}
			}
		}
		return Attr{Var: v(), Attr: attrs[r.Intn(len(attrs))]}
	}
	var atoms []Atom
	for i, n := 0, 1+r.Intn(5); i < n; i++ {
		switch r.Intn(11) {
		case 0, 1, 2:
			atoms = append(atoms, Class{Class: class(), Var: v()})
		case 3, 4, 5:
			atoms = append(atoms, Occurred{Event: randomExpr(r, 2), Var: v()})
		case 6:
			atoms = append(atoms, At{Event: randomExpr(r, 2), Var: v(), TimeVar: timeVar()})
		case 7:
			ty := worldPrims[r.Intn(len(worldPrims))]
			if r.Intn(3) == 0 {
				ty.Attr = "" // net modify of any attribute
			}
			atoms = append(atoms, Holds{Event: ty, Var: v()})
		case 8:
			x := v()
			atoms = append(atoms, Occurred{Event: randomExpr(r, 2), Var: x}, Class{Class: class(), Var: x})
		default:
			atoms = append(atoms, Compare{L: term(), Op: ops[r.Intn(len(ops))], R: term()})
		}
	}
	return Formula{Atoms: atoms}
}

func TestEvalMatchesLeftToRightOracle(t *testing.T) {
	r := rand.New(rand.NewSource(19960325))
	plan := calculus.NewPlan()
	var withBindings, withErrors, diverged, rejected int
	for i := 0; i < 4000; i++ {
		w := randomWorld(t, r)
		for j := 0; j < 6; j++ {
			f := randomFormula(r)
			g, err := f.Intern(plan)
			if want := oracleValid(f); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("world %d, %s: Intern error %v, oracle %v", i, f, err, want)
			}
			if err != nil {
				rejected++
				continue
			}
			got, gotErr := g.Eval(w.ctx)
			g.Release()
			plain, plainErr := oracleEval(w.ctx, f)
			want, wantErr := plain, plainErr
			if plainErr != nil {
				// The one licensed difference: errors on objects a later
				// event atom rejects.
				want, wantErr = oracleEval(w.ctx, declarative(f))
				if wantErr == nil {
					diverged++
				}
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("world %d, %s (since %d, at %d):\nEval error %v\noracle error %v (plain: %v)",
					i, f, w.ctx.Since, w.ctx.At, gotErr, wantErr, plainErr)
			}
			if rows := envs(w.ctx, got); !reflect.DeepEqual(rows, want) {
				t.Fatalf("world %d, %s (since %d, at %d):\nEval   %v\noracle %v", i, f, w.ctx.Since, w.ctx.At, rows, want)
			}
			if len(got) > 0 {
				withBindings++
			}
			if wantErr != nil {
				withErrors++
			}
		}
	}
	// The generator must reach all four outcomes, or the test proves little.
	if withBindings < 1000 || withErrors < 1000 || diverged == 0 || rejected == 0 {
		t.Fatalf("coverage: %d formulas bound something, %d raised an error, %d only without push-down, %d rejected",
			withBindings, withErrors, diverged, rejected)
	}
	t.Logf("%d formulas bound something, %d raised an error, %d only without push-down, %d rejected",
		withBindings, withErrors, diverged, rejected)
	if plan.Live() != 0 {
		t.Fatalf("every formula released, the plan still holds %d nodes", plan.Live())
	}
}
