// Package event implements the Chimera event substrate: primitive event
// types, event occurrences, and the Event Base (EB) — the log of all
// occurrences since the beginning of the transaction that Section 4.1 of
// the paper models as a table (EID, event type, OID, time stamp).
//
// The package also provides the Occurred-Events data structure of
// Section 5: a tree whose leaves are the per-type occurrence lists, each
// leaf keeping the time stamp of the most recent occurrence of its type,
// plus the sparse per-object index needed by instance-oriented operators.
//
// A database numbers its event types once, in one Registry that every
// transaction's Base and every consumer resolving types for those bases
// share.
package event

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

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
// and — for modify — the attribute changed. Type is comparable, and a
// database's Registry numbers it with a dense int32 id: an append
// resolves its Type to that id (hashing it only when it differs from
// the base's previous append), and below it the Event Base, the
// evaluators and the Trigger Support's arrival hand-off work on ids and
// never hash a Type.
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

// Registry numbers the event types of one database: every Base opened
// from it, and every consumer resolving types for those bases, uses one
// dense int32 id per type, assigned at its first use (Intern) and never
// recycled. Ids live only in memory: a WAL run declares each id it uses
// and a checkpoint carries BaseMeta.Types, and restore maps those onto
// the registry. A lookup of a known type takes no lock and allocates
// nothing, reading an immutable table published atomically; registering
// copies the table under the mutex, once per registration — one type
// (Intern) or a batch (InternAll) — per database. The zero value is an
// empty registry.
type Registry struct {
	mu  sync.Mutex
	tab atomic.Pointer[regTable]
}

// regTable is one published state of a Registry. Nothing a reader of it
// reads is written after it is published: types' backing array only
// gains entries past its length.
type regTable struct {
	ids   map[Type]int32
	types []Type
}

// lookup returns t's id, or false if t was never registered.
func (r *Registry) lookup(t Type) (int32, bool) {
	if tab := r.tab.Load(); tab != nil {
		id, ok := tab.ids[t]
		return id, ok
	}
	return 0, false
}

// Intern returns t's id, registering t on first use.
func (r *Registry) Intern(t Type) int32 {
	if id, ok := r.lookup(t); ok {
		return id
	}
	return r.register([]Type{t}, nil)[0]
}

// InternAll appends the id of each of ts to ids, registering the types
// not yet known together: the table is copied once for the batch, where
// registering them one by one copies it once per type.
func (r *Registry) InternAll(ts []Type, ids []int32) []int32 {
	n := len(ids)
	for _, t := range ts {
		id, ok := r.lookup(t)
		if !ok {
			return r.register(ts, ids[:n])
		}
		ids = append(ids, id)
	}
	return ids
}

// register appends the id of each of ts to ids under the mutex,
// publishing one new table if any of them is new.
func (r *Registry) register(ts []Type, ids []int32) []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.tab.Load()
	var tab *regTable
	for _, t := range ts {
		if old != nil {
			if id, ok := old.ids[t]; ok {
				ids = append(ids, id)
				continue
			}
		}
		if tab == nil {
			tab = &regTable{ids: map[Type]int32{}}
			if old != nil {
				tab.ids, tab.types = maps.Clone(old.ids), old.types
			}
		}
		id, ok := tab.ids[t]
		if !ok {
			id = int32(len(tab.types))
			tab.ids[t] = id
			tab.types = append(tab.types, t)
		}
		ids = append(ids, id)
	}
	if tab != nil {
		r.tab.Store(tab)
	}
	return ids
}

// types returns the registered types, indexed by id. The slice is
// read-only.
func (r *Registry) types() []Type {
	if tab := r.tab.Load(); tab != nil {
		return tab.types
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
