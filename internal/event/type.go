// Package event implements the Chimera event substrate: primitive event
// types, event occurrences, and the Event Base (EB) — the log of all
// occurrences since the beginning of the transaction that Section 4.1 of
// the paper models as a table (EID, event type, OID, time stamp).
//
// The package also provides the Occurred-Events data structure of
// Section 5: a tree whose leaves are the per-type occurrence lists, each
// leaf keeping the time stamp of the most recent occurrence of its type,
// plus the sparse per-object index needed by instance-oriented operators.
package event

import (
	"fmt"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// Op enumerates Chimera's internal (data-manipulation) operations, the
// only sources of primitive events the paper considers (Section 2:
// "create, modify, delete, generalize, specialize, select, etc.").
type Op int

const (
	// OpCreate is the creation of an object in a class.
	OpCreate Op = iota
	// OpDelete is the deletion of an object from a class.
	OpDelete
	// OpModify is the update of one attribute of an object.
	OpModify
	// OpGeneralize moves an object from a subclass up to a superclass.
	OpGeneralize
	// OpSpecialize moves an object from a superclass down to a subclass.
	OpSpecialize
	// OpSelect is a query touching an object.
	OpSelect
	// OpExternal is an externally raised signal (an extension beyond the
	// paper, mirroring HiPAC/REFLEX external events: the paper's Chimera
	// "was designed to consider only internal events"). The Class field
	// carries the signal name; no object is affected.
	OpExternal
)

var opNames = [...]string{
	OpCreate:     "create",
	OpDelete:     "delete",
	OpModify:     "modify",
	OpGeneralize: "generalize",
	OpSpecialize: "specialize",
	OpSelect:     "select",
	OpExternal:   "external",
}

// String returns the Chimera name of the operation.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Type is a primitive event type: an operation, the class it applies to,
// and — for modify — the attribute changed. Type is comparable, and an
// Event Base interns it to a dense int32 id (Base.InternType): below the
// API edge the Event Base, the evaluators and the Trigger Support's
// arrival hand-off work on those ids and never hash a Type.
//
// The paper's Figure 3 writes these as "create stock" and
// "modify stock quantity"; Type.String renders the calculus syntax
// create(stock) and modify(stock.quantity).
type Type struct {
	Op    Op
	Class string
	Attr  string // only for OpModify; empty otherwise
}

// T is a convenience constructor for a primitive event type.
func T(op Op, class string) Type { return Type{Op: op, Class: class} }

// Modify is a convenience constructor for a modify(class.attr) type.
func Modify(class, attr string) Type {
	return Type{Op: OpModify, Class: class, Attr: attr}
}

// Create is a convenience constructor for create(class).
func Create(class string) Type { return Type{Op: OpCreate, Class: class} }

// Delete is a convenience constructor for delete(class).
func Delete(class string) Type { return Type{Op: OpDelete, Class: class} }

// External is a convenience constructor for external(signal).
func External(signal string) Type { return Type{Op: OpExternal, Class: signal} }

// String renders the event type in calculus syntax.
func (t Type) String() string {
	if t.Attr != "" {
		return fmt.Sprintf("%s(%s.%s)", t.Op, t.Class, t.Attr)
	}
	return fmt.Sprintf("%s(%s)", t.Op, t.Class)
}

// Valid reports whether the type is well formed: modify requires an
// attribute, every other operation forbids one, and a class is mandatory.
func (t Type) Valid() error {
	if t.Class == "" {
		return fmt.Errorf("event: type %v has no class", t)
	}
	if t.Op == OpModify && t.Attr == "" {
		return fmt.Errorf("event: modify type on %s needs an attribute", t.Class)
	}
	if t.Op != OpModify && t.Attr != "" {
		return fmt.Errorf("event: %s type cannot carry attribute %q", t.Op, t.Attr)
	}
	return nil
}

// EID is the unique identifier of an event occurrence (e1, e2, ... in
// Figure 3).
type EID int64

// String renders the EID the way Figure 3 does.
func (e EID) String() string { return fmt.Sprintf("e%d", int64(e)) }

// Occurrence is one row of the Event Base: an event of some type that
// affected one object at one instant.
type Occurrence struct {
	EID       EID
	Type      Type
	OID       types.OID
	Timestamp clock.Time
}

// String renders the occurrence as a Figure 3 row.
func (o Occurrence) String() string {
	return fmt.Sprintf("%s | %s | %s | t%d", o.EID, o.Type, o.OID, int64(o.Timestamp))
}

// The Figure 4 accessor functions. They are trivial field projections, but
// the paper names them explicitly (type, obj, timestamp, event-on-class)
// and Figure 4 exercises them, so they exist as named functions.

// TypeOf returns the event type of an occurrence (Figure 4's "type").
func TypeOf(o Occurrence) Type { return o.Type }

// Obj returns the affected object (Figure 4's "obj").
func Obj(o Occurrence) types.OID { return o.OID }

// Timestamp returns the occurrence time stamp (Figure 4's "timestamp").
func Timestamp(o Occurrence) clock.Time { return o.Timestamp }

// EventOnClass returns the class of the object affected by the occurrence
// (Figure 4's "event-on-class"). As the paper notes, this information is
// part of the event type attribute.
func EventOnClass(o Occurrence) string { return o.Type.Class }
