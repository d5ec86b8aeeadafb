// Package storage implements database snapshots: the schema, the live
// objects, and the rule set serialize to a JSON document that a fresh
// database loads back. Rules are persisted as their concrete-syntax
// source (the renderings of the event expression, condition and action
// all parse back through internal/lang), so a snapshot is readable and
// diffable.
//
// Snapshots capture committed state only; the Event Base is
// per-transaction by the paper's definition and is deliberately not
// persisted.
package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"chimera/internal/clock"
	"chimera/internal/engine"
	"chimera/internal/lang"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Snapshot is the serialized form of a database.
type Snapshot struct {
	// Format identifies the snapshot layout version.
	Format int `json:"format"`
	// NextOID is the object allocator's high-water mark (format ≥ 2).
	// It is explicit state: deleting the newest object does not roll the
	// allocator back, so the live objects alone cannot determine it, and
	// reissuing a freed OID after a load would alias stale references.
	NextOID int64 `json:"next_oid"`
	// Classes lists every class in definition-compatible order (parents
	// before subclasses).
	Classes []ClassRecord `json:"classes"`
	// Objects lists the live objects in ascending OID order.
	Objects []ObjectRecord `json:"objects"`
	// Rules holds the rule definitions in concrete syntax.
	Rules []string `json:"rules"`
}

// CurrentFormat is the snapshot layout version written by Save.
// Format history:
//
//	1 — initial layout (no allocator state; loading re-derived it from
//	    the maximum live OID, silently reusing freed OIDs).
//	2 — adds next_oid.
const CurrentFormat = 2

// ClassRecord serializes one class.
type ClassRecord struct {
	Name    string       `json:"name"`
	Extends string       `json:"extends,omitempty"`
	Attrs   []AttrRecord `json:"attrs"`
}

// AttrRecord serializes one attribute declaration.
type AttrRecord struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// ObjectRecord serializes one object.
type ObjectRecord struct {
	OID   int64                  `json:"oid"`
	Class string                 `json:"class"`
	Attrs map[string]ValueRecord `json:"attrs"`
}

// ValueRecord serializes one attribute value with its kind tag.
type ValueRecord struct {
	Kind string `json:"kind"`
	// Exactly one of the following is meaningful, per Kind.
	Int    *int64   `json:"int,omitempty"`
	Float  *float64 `json:"float,omitempty"`
	String *string  `json:"string,omitempty"`
	Bool   *bool    `json:"bool,omitempty"`
}

func encodeValue(v types.Value) (ValueRecord, error) {
	switch v.Kind() {
	case types.KindNull:
		return ValueRecord{Kind: "null"}, nil
	case types.KindInt:
		n := v.AsInt()
		return ValueRecord{Kind: "integer", Int: &n}, nil
	case types.KindFloat:
		f := v.AsFloat()
		return ValueRecord{Kind: "float", Float: &f}, nil
	case types.KindString:
		s := v.AsString()
		return ValueRecord{Kind: "string", String: &s}, nil
	case types.KindBool:
		b := v.AsBool()
		return ValueRecord{Kind: "boolean", Bool: &b}, nil
	case types.KindTime:
		n := int64(v.AsTime())
		return ValueRecord{Kind: "time", Int: &n}, nil
	case types.KindOID:
		n := int64(v.AsOID())
		return ValueRecord{Kind: "oid", Int: &n}, nil
	}
	return ValueRecord{}, fmt.Errorf("storage: unknown value kind %v", v.Kind())
}

func decodeValue(r ValueRecord) (types.Value, error) {
	switch r.Kind {
	case "null":
		return types.Null, nil
	case "integer":
		if r.Int == nil {
			return types.Null, fmt.Errorf("storage: integer record without payload")
		}
		return types.Int(*r.Int), nil
	case "float":
		if r.Float == nil {
			return types.Null, fmt.Errorf("storage: float record without payload")
		}
		return types.Float(*r.Float), nil
	case "string":
		if r.String == nil {
			return types.Null, fmt.Errorf("storage: string record without payload")
		}
		return types.String_(*r.String), nil
	case "boolean":
		if r.Bool == nil {
			return types.Null, fmt.Errorf("storage: boolean record without payload")
		}
		return types.Bool(*r.Bool), nil
	case "time":
		if r.Int == nil {
			return types.Null, fmt.Errorf("storage: time record without payload")
		}
		return types.TimeVal(clock.Time(*r.Int)), nil
	case "oid":
		if r.Int == nil {
			return types.Null, fmt.Errorf("storage: oid record without payload")
		}
		return types.Ref(types.OID(*r.Int)), nil
	}
	return types.Null, fmt.Errorf("storage: unknown value kind %q", r.Kind)
}

// Capture builds a snapshot of a database. It must be called outside a
// transaction.
func Capture(db *engine.DB) (*Snapshot, error) {
	snap := &Snapshot{Format: CurrentFormat, NextOID: int64(db.Store().NextOID())}

	// Classes, parents first, each with the attributes it declares.
	for _, c := range db.Schema().Ordered() {
		rec := ClassRecord{Name: c.Name()}
		if p := c.Parent(); p != nil {
			rec.Extends = p.Name()
		}
		for _, a := range c.Own() {
			rec.Attrs = append(rec.Attrs, AttrRecord{Name: a.Name, Kind: a.Kind.String()})
		}
		snap.Classes = append(snap.Classes, rec)
	}

	// Objects, ascending OID.
	for _, o := range db.Store().Objects() {
		rec := ObjectRecord{OID: int64(o.OID()), Class: o.Class().Name(),
			Attrs: make(map[string]ValueRecord)}
		for name, v := range o.Snapshot() {
			enc, err := encodeValue(v)
			if err != nil {
				return nil, err
			}
			rec.Attrs[name] = enc
		}
		snap.Objects = append(snap.Objects, rec)
	}

	// Rules, in priority order, re-rendered to source.
	for _, name := range db.Support().Rules() {
		st, _ := db.Support().Rule(name)
		body := db.RuleBody(name)
		snap.Rules = append(snap.Rules, engine.RenderRule(st.Def, body))
	}
	return snap, nil
}

// ErrOldFormat reports a snapshot written by an earlier release; it is
// distinct from ErrUnknownFormat so callers can offer migration.
var ErrOldFormat = fmt.Errorf("storage: snapshot format predates this version")

// ErrUnknownFormat reports a snapshot format this version does not
// know — most likely a newer release's output (or a corrupt document).
var ErrUnknownFormat = fmt.Errorf("storage: unknown snapshot format")

// Load reconstructs a fresh database from a snapshot.
func Load(snap *Snapshot, opts engine.Options) (*engine.DB, error) {
	switch {
	case snap.Format == CurrentFormat:
	case snap.Format >= 1 && snap.Format < CurrentFormat:
		return nil, fmt.Errorf("%w: got %d, current is %d (re-save with a release that reads it)",
			ErrOldFormat, snap.Format, CurrentFormat)
	default:
		return nil, fmt.Errorf("%w: got %d, current is %d", ErrUnknownFormat, snap.Format, CurrentFormat)
	}
	db := engine.New(opts)
	for _, c := range snap.Classes {
		attrs := make([]schema.Attribute, len(c.Attrs))
		for i, a := range c.Attrs {
			k, err := types.ParseKind(a.Kind)
			if err != nil {
				return nil, fmt.Errorf("storage: class %s: %w", c.Name, err)
			}
			attrs[i] = schema.Attribute{Name: a.Name, Kind: k}
		}
		var err error
		if c.Extends != "" {
			err = db.DefineSubclass(c.Name, c.Extends, attrs...)
		} else {
			err = db.DefineClass(c.Name, attrs...)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, rec := range snap.Objects {
		vals := make(map[string]types.Value, len(rec.Attrs))
		for name, vr := range rec.Attrs {
			v, err := decodeValue(vr)
			if err != nil {
				return nil, fmt.Errorf("storage: object o%d: %w", rec.OID, err)
			}
			vals[name] = v
		}
		if err := db.Store().Restore(types.OID(rec.OID), rec.Class, vals); err != nil {
			return nil, err
		}
	}
	db.Store().SetNextOID(types.OID(snap.NextOID))
	for _, src := range snap.Rules {
		r, err := lang.ParseRule(src)
		if err != nil {
			return nil, fmt.Errorf("storage: rule %q: %w", firstLine(src), err)
		}
		if err := db.DefineRule(r.Def, engine.Body{
			Condition: r.Condition, Action: r.Action}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Write serializes the snapshot as indented JSON.
func Write(w io.Writer, snap *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Read parses a snapshot.
func Read(r io.Reader) (*Snapshot, error) {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &snap, nil
}

// SaveFile captures a database into a JSON file.
func SaveFile(db *engine.DB, path string) error {
	snap, err := Capture(db)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, snap)
}

// LoadFile reconstructs a database from a JSON file.
func LoadFile(path string, opts engine.Options) (*engine.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := Read(f)
	if err != nil {
		return nil, err
	}
	return Load(snap, opts)
}
