package cond

import (
	"fmt"

	"chimera/internal/event"
	"chimera/internal/types"
)

// Holds is the legacy net-effect event formula of original Chimera. The
// paper's footnote 2 observes that the calculus subsumes it — e.g. the
// net effect of a creation is expressed by
//
//	create(c) += ((create(c) <= modify(c.*)) ,= create(c)) + -=delete(c)
//
// — but Holds is kept for backward compatibility and for the X7
// experiment that checks the equivalence.
//
// The net effect of the occurrences on one object within the observed
// window is computed with the classical composition rules:
//
//	create ∘ modify  = create      modify ∘ modify = modify
//	create ∘ delete  = (nothing)   modify ∘ delete = delete
type Holds struct {
	// Event must be a primitive create/delete/modify type; the net effect
	// is computed for its class.
	Event event.Type
	Var   string
}

// NetKind classifies the net effect of a window on one object.
type NetKind int

// Net effects.
const (
	// NetNone means the window's occurrences cancel out (create+delete).
	NetNone NetKind = iota
	// NetCreate means the object was created (and possibly modified).
	NetCreate
	// NetDelete means a pre-existing object was deleted.
	NetDelete
	// NetModify means a pre-existing object was modified and survives.
	NetModify
)

// netState tracks the effect accumulation for one object.
type netState struct {
	created  bool
	deleted  bool
	modified map[string]bool // attribute set
	class    string
}

// NetEffects folds the occurrences of the window (since, at] on objects
// of the given class into net effects, returning the per-object state in
// first-touch order.
func NetEffects(ctx *Ctx, class string) map[types.OID]NetKind {
	out := make(map[types.OID]NetKind)
	states := make(map[types.OID]*netState)
	for _, occ := range ctx.Base.Window(ctx.Since, ctx.At) {
		if occ.Type.Class != class {
			continue
		}
		st := states[occ.OID]
		if st == nil {
			st = &netState{modified: make(map[string]bool), class: class}
			states[occ.OID] = st
		}
		switch occ.Type.Op {
		case event.OpCreate:
			st.created, st.deleted = true, false
		case event.OpDelete:
			st.deleted = true
		case event.OpModify:
			st.modified[occ.Type.Attr] = true
		}
	}
	for oid, st := range states {
		switch {
		case st.created && st.deleted:
			out[oid] = NetNone
		case st.created:
			out[oid] = NetCreate
		case st.deleted:
			out[oid] = NetDelete
		case len(st.modified) > 0:
			out[oid] = NetModify
		default:
			out[oid] = NetNone
		}
	}
	return out
}

// Eval binds or filters Var by the objects whose net effect matches the
// predicate's event type.
func (a Holds) Eval(ctx *Ctx, in []Binding) ([]Binding, error) { return evalEvent(a, ctx, in) }

func (a Holds) objVar() string { return a.Var }

// scan lists, in first-touch order, the objects of the class whose net
// effect over the window matches.
func (a Holds) scan(ctx *Ctx, w *window) error {
	var want NetKind
	switch a.Event.Op {
	case event.OpCreate:
		want = NetCreate
	case event.OpDelete:
		want = NetDelete
	case event.OpModify:
		want = NetModify
	default:
		return fmt.Errorf("cond: holds supports create/delete/modify, got %s", a.Event.Op)
	}
	nets := NetEffects(ctx, a.Event.Class)
	w.order = w.order[:0]
	for _, occ := range ctx.Base.Window(ctx.Since, ctx.At) {
		if occ.Type.Class != a.Event.Class || nets[occ.OID] != want {
			continue
		}
		delete(nets, occ.OID) // first touch only
		// For modify with a named attribute, additionally require that
		// attribute to have been touched.
		if a.Event.Op == event.OpModify && a.Event.Attr != "" &&
			len(ctx.Base.OccurrencesOfObj(a.Event, occ.OID, ctx.Since, ctx.At)) == 0 {
			continue
		}
		w.order = append(w.order, occ.OID)
	}
	w.setSorted()
	return nil
}

func (a Holds) bind(ctx *Ctx, w *window, v, _ int, in []Binding) ([]Binding, error) {
	return w.bind(ctx, v, in)
}

// String renders holds(E, X).
func (a Holds) String() string {
	return fmt.Sprintf("holds(%s, %s)", a.Event, a.Var)
}
