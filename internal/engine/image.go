package engine

import (
	"fmt"

	"chimera/internal/lang"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// Image is the committed state that outlives transactions (§2 of the
// paper: a transaction's updates and its Event Base stay private until
// commit): the schema, the rule set, the objects and the OID allocation
// point. A checkpoint's catalog and objects frames and a saved snapshot
// (storage.Capture) both encode one; Recover and storage.Load both
// restore one through the same function.
type Image struct {
	// Classes lists every class parents first, each with the attributes
	// it declares.
	Classes []ImageClass
	// Rules holds the rule sources (RenderRule) in priority order.
	Rules []string
	// Objects lists the objects in ascending OID order.
	Objects []ImageObject
	// NextOID is the allocator's high-water mark. Deleting the newest
	// object does not roll it back, so the objects alone cannot
	// determine it.
	NextOID types.OID
}

// ImageClass is one class of an Image.
type ImageClass struct {
	Name   string
	Parent string // "" for a root class
	Attrs  []schema.Attribute
}

// ImageObject is one object of an Image: the attributes ever set on it.
// DB.Image lists them in the class's Attributes() order, so a state
// always encodes to the same bytes; restoring accepts any order.
type ImageObject struct {
	OID   types.OID
	Class string
	Attrs []ImageAttr
}

// ImageAttr is one attribute value of an ImageObject.
type ImageAttr struct {
	Name string
	Val  types.Value
}

// Image captures the committed state. The objects come from the
// published snapshot (DESIGN.md §16), never from the live store that
// open lines write in place; the catalog is read under the lock that
// excludes DDL.
func (db *DB) Image() *Image {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.image(db.store.Published().Objects())
}

// image builds an Image over objs (ascending OID); db.mu is held. NextOID
// is the live allocator: never below the committed one, and in
// multi-session mode it already covers the OIDs open lines allocated,
// whose runs replay after a checkpoint's marker.
func (db *DB) image(objs []*object.Object) *Image {
	img := &Image{NextOID: db.store.NextOID(), Objects: make([]ImageObject, len(objs))}
	for _, c := range db.schema.Ordered() {
		ic := ImageClass{Name: c.Name(), Attrs: c.Own()}
		if p := c.Parent(); p != nil {
			ic.Parent = p.Name()
		}
		img.Classes = append(img.Classes, ic)
	}
	for _, name := range db.support.Rules() {
		st, _ := db.support.Rule(name)
		img.Rules = append(img.Rules, RenderRule(st.Def, db.bodies[name]))
	}
	total := 0
	for _, o := range objs {
		total += len(o.Class().Attributes())
	}
	// One backing array holds every object's attributes.
	vals := make([]ImageAttr, 0, total)
	for i, o := range objs {
		start := len(vals)
		for _, a := range o.Class().Attributes() {
			if v, ok := o.Lookup(a.Name); ok {
				vals = append(vals, ImageAttr{Name: a.Name, Val: v})
			}
		}
		img.Objects[i] = ImageObject{OID: o.OID(), Class: o.Class().Name(), Attrs: vals[start:len(vals):len(vals)]}
	}
	return img
}

// restore loads img into a fresh database: classes, rules, objects and
// the allocation point. It logs nothing (no WAL is attached yet) and
// publishes nothing; the caller publishes once its state is complete.
func (db *DB) restore(img *Image) error {
	for _, c := range img.Classes {
		var err error
		if c.Parent == "" {
			_, err = db.schema.Define(c.Name, c.Attrs...)
		} else {
			_, err = db.schema.DefineSub(c.Name, c.Parent, c.Attrs...)
		}
		if err != nil {
			return fmt.Errorf("class %q: %w", c.Name, err)
		}
	}
	for _, src := range img.Rules {
		if err := db.defineRuleSource(src); err != nil {
			return err
		}
	}
	for _, o := range img.Objects {
		vals := make(map[string]types.Value, len(o.Attrs))
		for _, a := range o.Attrs {
			vals[a.Name] = a.Val
		}
		if err := db.store.Restore(o.OID, o.Class, vals); err != nil {
			return err
		}
	}
	// The allocation point is explicit state: OIDs freed by deletions
	// before the image must never be reissued.
	db.store.SetNextOID(img.NextOID)
	return nil
}

// defineRuleSource defines a rule from its source form, through the same
// parser a live definition came through.
func (db *DB) defineRuleSource(src string) error {
	r, err := lang.ParseRule(src)
	if err != nil {
		return fmt.Errorf("rule %w", err)
	}
	if err := db.DefineRule(r.Def, Body{Condition: r.Condition, Action: r.Action}); err != nil {
		return fmt.Errorf("rule %q: %w", r.Def.Name, err)
	}
	return nil
}

// OpenImage is Open over a database that starts from img instead of
// empty (nil img: Open). The image is restored and published; on a
// durable store it becomes the first checkpoint — restoring logs
// nothing, so without that checkpoint a crash would lose it.
func OpenImage(img *Image, opts Options) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Durability.enabled() {
		ckpt, err := opts.Durability.Store.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
		wal, err := opts.Durability.Store.WAL()
		if err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
		if ckpt != nil || len(wal) > 0 {
			return nil, ErrNeedsRecovery
		}
	}
	db := newDB(opts)
	if img != nil {
		if err := db.restore(img); err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
		db.publishAll(nil)
	}
	if !opts.Durability.enabled() {
		return db, nil
	}
	db.attachWAL()
	// The initial checkpoint stamps the store with sequence 1 and seeds
	// the WAL with its marker record, so a crash before the first
	// explicit checkpoint already recovers cleanly.
	db.mu.Lock()
	err := db.checkpointNow(nil)
	db.mu.Unlock()
	if err != nil {
		db.wal.close()
		return nil, err
	}
	return db, nil
}

// publishAll publishes the whole committed store as a new snapshot
// epoch: with open, the store minus open's uncommitted writes (see
// object.Store.PublishAll).
func (db *DB) publishAll(open *object.Line) {
	db.store.PublishAll(open)
	db.m.snapshotEpoch.Set(int64(db.store.PublishedEpoch()))
}
