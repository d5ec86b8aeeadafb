// Package storage implements database snapshots: the engine's Image of
// committed state — the schema, the objects and the rule set — as a
// JSON document that a fresh database loads back. Rules are persisted
// as their concrete-syntax source (the renderings of the event
// expression, condition and action all parse back through
// internal/lang), so a snapshot is readable and diffable.
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

	"chimera/internal/clock"
	"chimera/internal/engine"
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

// Capture builds a snapshot of a database's committed state
// (engine.DB.Image): open transactions are left out, whatever their
// mode.
func Capture(db *engine.DB) (*Snapshot, error) {
	img := db.Image()
	snap := &Snapshot{Format: CurrentFormat, NextOID: int64(img.NextOID)}
	for _, c := range img.Classes {
		rec := ClassRecord{Name: c.Name, Extends: c.Parent}
		for _, a := range c.Attrs {
			rec.Attrs = append(rec.Attrs, AttrRecord{Name: a.Name, Kind: a.Kind.String()})
		}
		snap.Classes = append(snap.Classes, rec)
	}
	for _, o := range img.Objects {
		rec := ObjectRecord{OID: int64(o.OID), Class: o.Class,
			Attrs: make(map[string]ValueRecord, len(o.Attrs))}
		for _, a := range o.Attrs {
			enc, err := encodeValue(a.Val)
			if err != nil {
				return nil, err
			}
			rec.Attrs[a.Name] = enc
		}
		snap.Objects = append(snap.Objects, rec)
	}
	snap.Rules = img.Rules
	return snap, nil
}

// ErrOldFormat reports a snapshot written by an earlier release; it is
// distinct from ErrUnknownFormat so callers can offer migration.
var ErrOldFormat = fmt.Errorf("storage: snapshot format predates this version")

// ErrUnknownFormat reports a snapshot format this version does not
// know — most likely a newer release's output (or a corrupt document).
var ErrUnknownFormat = fmt.Errorf("storage: unknown snapshot format")

// Load reconstructs a fresh database from a snapshot through
// engine.OpenImage: the options are validated, and on a durable store
// the loaded state becomes the first checkpoint.
func Load(snap *Snapshot, opts engine.Options) (*engine.DB, error) {
	switch {
	case snap.Format == CurrentFormat:
	case snap.Format >= 1 && snap.Format < CurrentFormat:
		return nil, fmt.Errorf("%w: got %d, current is %d (re-save with a release that reads it)",
			ErrOldFormat, snap.Format, CurrentFormat)
	default:
		return nil, fmt.Errorf("%w: got %d, current is %d", ErrUnknownFormat, snap.Format, CurrentFormat)
	}
	img := &engine.Image{NextOID: types.OID(snap.NextOID), Rules: snap.Rules}
	for _, c := range snap.Classes {
		ic := engine.ImageClass{Name: c.Name, Parent: c.Extends, Attrs: make([]schema.Attribute, len(c.Attrs))}
		for i, a := range c.Attrs {
			k, err := types.ParseKind(a.Kind)
			if err != nil {
				return nil, fmt.Errorf("storage: class %s: %w", c.Name, err)
			}
			ic.Attrs[i] = schema.Attribute{Name: a.Name, Kind: k}
		}
		img.Classes = append(img.Classes, ic)
	}
	for _, rec := range snap.Objects {
		o := engine.ImageObject{OID: types.OID(rec.OID), Class: rec.Class}
		for name, vr := range rec.Attrs {
			v, err := decodeValue(vr)
			if err != nil {
				return nil, fmt.Errorf("storage: object o%d: %w", rec.OID, err)
			}
			o.Attrs = append(o.Attrs, engine.ImageAttr{Name: name, Val: v})
		}
		img.Objects = append(img.Objects, o)
	}
	return engine.OpenImage(img, opts)
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
