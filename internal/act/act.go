// Package act implements the action part of Chimera rules: database
// manipulation statements executed set-orientedly over the bindings the
// condition produced (Section 2 of the paper: "all the objects created
// and not checked yet by the rule are processed together in a single
// rule execution").
//
// Statements do not touch the object store directly; they go through a
// Mutator so the engine can stamp every mutation with the logical clock
// and log the corresponding event occurrence.
package act

import (
	"fmt"
	"sort"
	"strings"

	"chimera/internal/cond"
	"chimera/internal/types"
)

// Mutator is the engine-provided sink for database manipulations. Every
// call generates the corresponding primitive event.
type Mutator interface {
	// Create reads vals only during the call.
	Create(class string, vals map[string]types.Value) (types.OID, error)
	Modify(oid types.OID, attr string, v types.Value) error
	Delete(oid types.OID) error
	Specialize(oid types.OID, sub string) error
	Generalize(oid types.OID, super string) error
}

// Statement is one action statement.
type Statement interface {
	fmt.Stringer
	// Exec runs the statement over every binding, reading the variables
	// of a row by the columns of ctx's slot table.
	Exec(ctx *cond.Ctx, m Mutator, bindings []cond.Binding) error
}

// Create instantiates an object per binding (once total when the value
// terms use no variables and Once is set).
type Create struct {
	Class string
	Vals  map[string]cond.Term
	// Once executes the creation a single time instead of once per
	// binding (for actions that create a summary object).
	Once bool
}

// Exec evaluates the value terms under each binding and creates objects.
// The bindings share one value map: Mutator.Create does not keep it.
func (s Create) Exec(ctx *cond.Ctx, m Mutator, bindings []cond.Binding) error {
	run := bindings
	if s.Once {
		run = bindings[:1]
	}
	vals := make(map[string]types.Value, len(s.Vals))
	for _, row := range run {
		clear(vals)
		for attr, term := range s.Vals {
			v, err := term.Eval(ctx, row)
			if err != nil {
				return err
			}
			vals[attr] = v
		}
		if _, err := m.Create(s.Class, vals); err != nil {
			return err
		}
	}
	return nil
}

// String renders create(class, attr = term, ...) — or create once(...)
// for a single-shot creation — in the concrete rule syntax (attributes
// sorted for determinism), so a rendered action parses back. The Once
// marker must round-trip: recovery re-parses rendered rules, and a
// dropped modifier would multiply the creation by the binding count.
func (s Create) String() string {
	attrs := make([]string, 0, len(s.Vals))
	for attr := range s.Vals {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	parts := make([]string, 0, len(attrs)+1)
	parts = append(parts, s.Class)
	for _, attr := range attrs {
		parts = append(parts, attr+" = "+s.Vals[attr].String())
	}
	kw := "create"
	if s.Once {
		kw = "create once"
	}
	return fmt.Sprintf("%s(%s)", kw, strings.Join(parts, ", "))
}

// Modify sets one attribute of the object each binding's variable refers
// to — the paper's modify(stock.quantity, S, S.maxquantity).
type Modify struct {
	Class string
	Attr  string
	Var   string
	Value cond.Term
}

// Exec applies the modification per binding.
func (s Modify) Exec(ctx *cond.Ctx, m Mutator, bindings []cond.Binding) error {
	slot := ctx.Slot(s.Var)
	for _, row := range bindings {
		oid, err := boundObject(row, slot, s.Var)
		if err != nil {
			return err
		}
		v, err := s.Value.Eval(ctx, row)
		if err != nil {
			return err
		}
		if err := m.Modify(oid, s.Attr, v); err != nil {
			return err
		}
	}
	return nil
}

// String renders modify(class.attr, Var, term).
func (s Modify) String() string {
	return fmt.Sprintf("modify(%s.%s, %s, %s)", s.Class, s.Attr, s.Var, s.Value)
}

// Delete removes the object each binding's variable refers to.
type Delete struct {
	Var string
}

// Exec deletes per binding, tolerating objects already deleted by an
// earlier binding of the same set-oriented execution.
func (s Delete) Exec(ctx *cond.Ctx, m Mutator, bindings []cond.Binding) error {
	return eachObject(ctx, bindings, s.Var, m.Delete)
}

// String renders delete(Var).
func (s Delete) String() string { return fmt.Sprintf("delete(%s)", s.Var) }

// Specialize moves each bound object down into a subclass.
type Specialize struct {
	Var string
	To  string
}

// Exec specializes per binding.
func (s Specialize) Exec(ctx *cond.Ctx, m Mutator, bindings []cond.Binding) error {
	return eachObject(ctx, bindings, s.Var, func(oid types.OID) error { return m.Specialize(oid, s.To) })
}

// String renders specialize(Var, class).
func (s Specialize) String() string { return fmt.Sprintf("specialize(%s, %s)", s.Var, s.To) }

// Generalize moves each bound object up into a superclass.
type Generalize struct {
	Var string
	To  string
}

// Exec generalizes per binding.
func (s Generalize) Exec(ctx *cond.Ctx, m Mutator, bindings []cond.Binding) error {
	return eachObject(ctx, bindings, s.Var, func(oid types.OID) error { return m.Generalize(oid, s.To) })
}

// String renders generalize(Var, class).
func (s Generalize) String() string { return fmt.Sprintf("generalize(%s, %s)", s.Var, s.To) }

// eachObject calls fn once per object the rows bind the variable name to,
// in the order of first binding. While the objects ascend, as a class
// extension does, none can repeat; from the first that does not, ctx's
// scratch set holds the objects done.
func eachObject(ctx *cond.Ctx, rows []cond.Binding, name string, fn func(types.OID) error) error {
	slot := ctx.Slot(name)
	var done map[types.OID]bool
	last := types.NilOID
	for i, row := range rows {
		oid, err := boundObject(row, slot, name)
		if err != nil {
			return err
		}
		if done == nil && oid <= last {
			done = ctx.OIDSet()
			for _, prev := range rows[:i] {
				done[prev[slot].AsOID()] = true
			}
		}
		if done != nil {
			if done[oid] {
				continue
			}
			done[oid] = true
		}
		if err := fn(oid); err != nil {
			return err
		}
		last = oid
	}
	return nil
}

// boundObject reads the object variable name from column slot of row.
func boundObject(row cond.Binding, slot int, name string) (types.OID, error) {
	ref, ok := row.Get(slot)
	if !ok {
		return types.NilOID, fmt.Errorf("act: unbound variable %s", name)
	}
	if ref.Kind() != types.KindOID {
		return types.NilOID, fmt.Errorf("act: %s is not an object variable", name)
	}
	return ref.AsOID(), nil
}

// Action is the ordered statement list of a rule's action part.
type Action struct {
	Statements []Statement
}

// Exec runs the statements in order over the binding set.
func (a Action) Exec(ctx *cond.Ctx, m Mutator, bindings []cond.Binding) error {
	for _, s := range a.Statements {
		if err := s.Exec(ctx, m, bindings); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

// String renders the semicolon-separated statement list.
func (a Action) String() string {
	parts := make([]string, len(a.Statements))
	for i, s := range a.Statements {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}
