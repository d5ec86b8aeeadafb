// Package object implements the Chimera object store: identity-bearing
// objects with typed attributes, created, modified, deleted and moved
// along the class hierarchy by the data-manipulation operations that
// generate Chimera's primitive events.
//
// The store is purely a state container: it performs no event logging and
// no rule processing. Every mutation goes through a transaction Line
// (line.go), which keeps the undo log that rolls it back; the engine wraps
// each one, stamps it with the logical clock and appends the corresponding
// occurrence to the Event Base.
package object

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chimera/internal/schema"
	"chimera/internal/types"
)

// Object is one stored instance: an OID, its current class, and its
// attribute values as a row laid out by the class: row[i] is the
// attribute at the class's slot i (schema.Class.Slot), and the row has
// one cell per attribute of the class. Specializing extends the row,
// generalizing truncates it; every kept attribute stays at its slot.
type Object struct {
	oid   types.OID
	class *schema.Class
	row   []cell
}

// cell is one attribute of a row. set tells an attribute set to Null
// from one never set: Null is assignable to every attribute, and Lookup,
// the undo log and the checkpoint image tell the two apart.
type cell struct {
	v   types.Value
	set bool
}

// OID returns the object's identity.
func (o *Object) OID() types.OID { return o.oid }

// Class returns the object's current class.
func (o *Object) Class() *schema.Class { return o.class }

// Get returns the value of an attribute (types.Null if never set; an
// error if the class has no such attribute).
func (o *Object) Get(attr string) (types.Value, error) {
	i, ok := o.class.Slot(attr)
	if !ok {
		return types.Null, fmt.Errorf("object: class %q has no attribute %q", o.class.Name(), attr)
	}
	return o.row[i].v, nil
}

// MustGet is Get for callers that already validated the attribute.
func (o *Object) MustGet(attr string) types.Value {
	if i, ok := o.class.Slot(attr); ok {
		return o.row[i].v
	}
	return types.Null
}

// Lookup returns the value of an attribute and whether it was ever set.
func (o *Object) Lookup(attr string) (types.Value, bool) {
	if i, ok := o.class.Slot(attr); ok && o.row[i].set {
		return o.row[i].v, true
	}
	return types.Null, false
}

// String renders the object as class(oid){attr: value, ...} with its set
// attributes sorted by name.
func (o *Object) String() string {
	attrs := o.class.Attributes()
	set := make([]int, 0, len(o.row))
	for i := range o.row {
		if o.row[i].set {
			set = append(set, i)
		}
	}
	slices.SortFunc(set, func(a, b int) int { return cmp.Compare(attrs[a].Name, attrs[b].Name) })
	s := fmt.Sprintf("%s(%s){", o.class.Name(), o.oid)
	for n, i := range set {
		if n > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %s", attrs[i].Name, o.row[i].v)
	}
	return s + "}"
}

// newRow lays vals, which schema.Validate accepted for c, out as a row
// of c.
func newRow(c *schema.Class, vals map[string]types.Value) []cell {
	row := make([]cell, len(c.Attributes()))
	for k, v := range vals {
		i, _ := c.Slot(k)
		row[i] = cell{v: v, set: true}
	}
	return row
}

// resize returns row at length n: truncated, the cut cells cleared, or
// extended by unset cells.
func resize(row []cell, n int) []cell {
	if n <= len(row) {
		clear(row[n:])
		return row[:n]
	}
	m := len(row)
	row = slices.Grow(row, n-m)[:n]
	clear(row[m:])
	return row
}

// undoKind discriminates the mutation an undoEntry reverses.
type undoKind uint8

const (
	undoCreate undoKind = iota + 1
	undoModify
	undoDelete
	undoMigrate
)

// undoEntry reverses one mutation. Entries are plain values — no
// closures, no *Object pointers — so an open transaction's undo log can
// be serialized into a durability checkpoint and reinstated after a
// crash; every apply resolves the object by OID at undo time.
//
// A line's log holds two kinds of entry (see Line.Savepoint): one per
// mutation for the block since the last savepoint, and, below them, one
// image per object for the blocks accepted before it — an undoCreate for
// an object the transaction created, an undoDelete carrying the whole
// object (class and row) as the transaction found it otherwise. apply
// serves both: an undoCreate removes the object from whatever class it
// is in, an undoDelete reinstates the image over whatever the object has
// become.
type undoEntry struct {
	kind  undoKind
	reuse bool  // create: roll the OID allocator back
	slot  int32 // modify: the attribute's slot
	oid   types.OID
	class string // create: creation class; modify: the object's class, which names the slot; delete/migrate: class to restore
	old   cell   // modify: previous value, and whether it was set
	row   []cell // delete: row to restore; migrate: the row's tail generalize dropped
}

// apply reverses the recorded mutation. Per-mutation entries run newest
// first, so by the time one applies, every later mutation to the same
// object has already been reversed: a migrated object still carries the
// target class. Images run after every per-mutation entry above them.
// apply copies the rows it reinstates: an entry's row may be the line's
// image storage, which outlives no line.
func (e undoEntry) apply(s *Store) {
	switch e.kind {
	case undoCreate:
		if o, ok := s.objects.get(e.oid); ok {
			delete(s.classSet(o.class.Name()), e.oid)
			s.objects.del(e.oid)
		}
		if e.reuse {
			// One allocation undone per creation: on a solo line every
			// OID above this one was created later and is undone first.
			s.nextOID--
		}
	case undoModify:
		if o, ok := s.objects.get(e.oid); ok {
			o.row[e.slot] = e.old
		}
	case undoDelete:
		c, ok := s.schema.Class(e.class)
		if !ok {
			return
		}
		o, ok := s.objects.get(e.oid)
		if ok {
			delete(s.classSet(o.class.Name()), e.oid)
			o.class, o.row = c, append(o.row[:0], e.row...)
		} else {
			o = &Object{oid: e.oid, class: c, row: slices.Clone(e.row)}
			s.objects.set(e.oid, o)
		}
		s.classSet(e.class)[e.oid] = o
	case undoMigrate:
		o, ok := s.objects.get(e.oid)
		if !ok {
			return
		}
		c, ok := s.schema.Class(e.class)
		if !ok {
			return
		}
		delete(s.classSet(o.class.Name()), e.oid)
		o.class = c
		o.row = e.restore(o.row, c)
		s.classSet(e.class)[e.oid] = o
	}
}

// restore returns row, the row of a migrated object, at the width of c,
// the class the migration left: a specialization's extra cells are cut,
// a generalization's dropped tail is put back. The superclass has no
// such attributes, so nothing could have touched them since.
func (e *undoEntry) restore(row []cell, c *schema.Class) []cell {
	row = resize(row, len(c.Attributes()))
	copy(row[len(row)-len(e.row):], e.row)
	return row
}

// unapply reverses e on img, a detached image of e's object being
// rolled back from its current state (Line.Savepoint): the store is not
// touched.
func (e *undoEntry) unapply(img *undoEntry, sch *schema.Schema) {
	switch e.kind {
	case undoCreate:
		img.kind, img.class, img.row, img.reuse = undoCreate, e.class, nil, e.reuse
	case undoModify:
		img.row[e.slot] = e.old
	case undoDelete:
		// The deleted object's row is the entry's alone, and the entry is
		// dropped with the fold: the image takes it over.
		img.class, img.row = e.class, e.row
	case undoMigrate:
		c, _ := sch.Class(e.class)
		img.class, img.row = e.class, e.restore(img.row, c)
	}
}

// Store holds all live objects of a database.
type Store struct {
	mu     sync.RWMutex
	schema *schema.Schema
	// objects finds every live object by OID; its nodes carry epoch 0,
	// so it is written in place, under mu.
	objects dir
	byClass map[string]map[types.OID]*Object
	nextOID types.OID
	// latches and nextLine serve the multi-line access path (BeginLine):
	// per-OID and per-class reader/writer latches held to line end, and
	// the line id allocator.
	latches  *latchTable
	nextLine atomic.Uint64
	// published is the latest epoch-stamped immutable snapshot of
	// committed state (see snapshot.go). Read transactions pin it with a
	// single atomic load; commits stage deltas and the first reader that
	// observes a stale snapshot materializes the successor.
	published atomic.Pointer[Snapshot]
	// Staged publication state (see snapshot.go): commits copy their
	// write sets into pending under pendMu — O(write set), no directory
	// writes — and flip stale; Published() materializes lazily. epoch is
	// the logical epoch counter: one tick per staged commit or full
	// publication, read by PublishedEpoch without materializing.
	pendMu     sync.Mutex
	pending    map[types.OID]*Object
	pendSchema *schema.Schema
	stale      atomic.Bool
	epoch      atomic.Uint64
}

// NewStore returns an empty store over the given schema.
func NewStore(s *schema.Schema) *Store {
	return &Store{
		schema:  s,
		byClass: make(map[string]map[types.OID]*Object),
		latches: newLatchTable(),
	}
}

// Schema returns the catalog the store was built over.
func (s *Store) Schema() *schema.Schema { return s.schema }

// Len returns the number of live objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.objects.n
}

// createLocked instantiates a new object of the named class, recording
// its undo entry in undo. reuseOID selects whether the undo entry rolls
// the OID allocator back: with a single line of control the created OID
// is always the newest at undo time, but with concurrent lines a later
// line may have allocated past it, so aborts leave an OID gap instead.
func (s *Store) createLocked(class string, vals map[string]types.Value, undo *[]undoEntry, reuseOID bool) (types.OID, error) {
	c, ok := s.schema.Class(class)
	if !ok {
		return types.NilOID, fmt.Errorf("object: unknown class %q", class)
	}
	if err := schema.Validate(c, vals); err != nil {
		return types.NilOID, err
	}
	s.nextOID++
	oid := s.nextOID
	o := &Object{oid: oid, class: c, row: newRow(c, vals)}
	s.objects.set(oid, o)
	s.classSet(c.Name())[oid] = o
	*undo = append(*undo, undoEntry{kind: undoCreate, oid: oid, class: c.Name(), reuse: reuseOID})
	return oid, nil
}

// createAtLocked reinstates an object at an explicit OID — the
// multi-session WAL replay path. Commit-ordered replay interleaves
// differently with the allocator than the original sessions did (a txn
// that allocated later may commit first), so replay cannot re-derive
// OIDs from sequential allocation; it places each creation at its logged
// identity and only ratchets the allocator forward. The undo entry never
// rolls the allocator back (reuse=false), matching the concurrent-line
// creation path.
func (s *Store) createAtLocked(oid types.OID, class string, vals map[string]types.Value, undo *[]undoEntry) error {
	if oid < 1 {
		return fmt.Errorf("object: cannot create OID %s: OIDs start at 1", oid)
	}
	if _, dup := s.objects.get(oid); dup {
		return fmt.Errorf("object: OID %s already live", oid)
	}
	c, ok := s.schema.Class(class)
	if !ok {
		return fmt.Errorf("object: unknown class %q", class)
	}
	if err := schema.Validate(c, vals); err != nil {
		return err
	}
	o := &Object{oid: oid, class: c, row: newRow(c, vals)}
	s.objects.set(oid, o)
	s.classSet(c.Name())[oid] = o
	if oid > s.nextOID {
		s.nextOID = oid
	}
	*undo = append(*undo, undoEntry{kind: undoCreate, oid: oid, class: c.Name()})
	return nil
}

func (s *Store) modifyLocked(oid types.OID, attr string, v types.Value, undo *[]undoEntry) error {
	o, ok := s.objects.get(oid)
	if !ok {
		return fmt.Errorf("object: no object %s", oid)
	}
	i, ok := o.class.Slot(attr)
	if !ok {
		return fmt.Errorf("object: class %q has no attribute %q", o.class.Name(), attr)
	}
	if k := o.class.Attributes()[i].Kind; !v.AssignableTo(k) {
		return fmt.Errorf("object: attribute %s.%s is %s, got %s", o.class.Name(), attr, k, v.Kind())
	}
	*undo = append(*undo, undoEntry{kind: undoModify, oid: oid, class: o.class.Name(), slot: int32(i), old: o.row[i]})
	o.row[i] = cell{v: v, set: true}
	return nil
}

func (s *Store) deleteLocked(oid types.OID, undo *[]undoEntry) error {
	o, ok := s.objects.get(oid)
	if !ok {
		return fmt.Errorf("object: no object %s", oid)
	}
	s.objects.del(oid)
	delete(s.classSet(o.class.Name()), oid)
	// The deleted object's row is unreachable from the store now, so the
	// entry can keep it without copying.
	*undo = append(*undo, undoEntry{kind: undoDelete, oid: oid, class: o.class.Name(), row: o.row})
	return nil
}

// migrateLocked moves an object along the hierarchy: down into a
// subclass of its current class, keeping its attributes, or up into a
// superclass, dropping the attributes the superclass lacks.
func (s *Store) migrateLocked(oid types.OID, to string, down bool, undo *[]undoEntry) error {
	o, ok := s.objects.get(oid)
	if !ok {
		return fmt.Errorf("object: no object %s", oid)
	}
	target, ok := s.schema.Class(to)
	if !ok {
		return fmt.Errorf("object: unknown class %q", to)
	}
	if down {
		if !target.IsA(o.class) {
			return fmt.Errorf("object: %q is not a subclass of %q", to, o.class.Name())
		}
	} else {
		if !o.class.IsA(target) {
			return fmt.Errorf("object: %q is not a superclass of %q", to, o.class.Name())
		}
	}
	oldClass := o.class
	delete(s.classSet(oldClass.Name()), oid)
	n := len(target.Attributes())
	var dropped []cell
	if down {
		o.row = resize(o.row, n)
	} else {
		// Generalizing drops the row's tail, the attributes the superclass
		// lacks. The undo entry keeps the tail: the superclass has no such
		// attributes, so they cannot change before the entry applies. The
		// row's capacity ends where the tail starts, so the tail is the
		// entry's alone.
		dropped = o.row[n:]
		o.row = o.row[:n:n]
	}
	o.class = target
	s.classSet(target.Name())[oid] = o
	*undo = append(*undo, undoEntry{kind: undoMigrate, oid: oid, class: oldClass.Name(), row: dropped})
	return nil
}

// Restore reinstates an object with a fixed OID — used by image loading
// only. It fails if the OID is below 1 or already live; the allocator is
// advanced past the restored OID so later creations stay unique.
func (s *Store) Restore(oid types.OID, class string, vals map[string]types.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var undo []undoEntry // no line to roll it back
	return s.createAtLocked(oid, class, vals, &undo)
}

// NextOID returns the allocator's high-water mark: the OID most
// recently allocated (or restored past). It is part of durable state —
// deleting the newest object does not roll the allocator back, so the
// live objects alone do not determine it.
func (s *Store) NextOID() types.OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextOID
}

// SetNextOID advances the allocator to at least oid. Snapshot and
// checkpoint loading use it to reinstate the exact allocation point, so
// OIDs freed by pre-snapshot deletions are never reissued to new
// objects (an OID is an identity; reuse would alias stale references).
func (s *Store) SetNextOID(oid types.OID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if oid > s.nextOID {
		s.nextOID = oid
	}
}

// Get returns the live object with the given OID.
func (s *Store) Get(oid types.OID) (*Object, bool) {
	s.mu.RLock()
	o, ok := s.objects.get(oid)
	s.mu.RUnlock()
	return o, ok
}

// Select returns the OIDs of all live objects whose class is (or
// specializes) the named class, in ascending OID order — Chimera's
// set-oriented select. The caller may further filter with a predicate.
func (s *Store) Select(class string) ([]types.OID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	target, ok := s.schema.Class(class)
	if !ok {
		return nil, fmt.Errorf("object: unknown class %q", class)
	}
	// The extension is the union of the per-class sets of the target and
	// of every class below it; the sets are disjoint, so their sizes add.
	below := func(name string) bool {
		c, ok := s.schema.Class(name)
		return ok && c.IsA(target)
	}
	n := 0
	for name, set := range s.byClass {
		if below(name) {
			n += len(set)
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]types.OID, 0, n)
	for name, set := range s.byClass {
		if below(name) {
			for oid := range set {
				out = append(out, oid)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// Objects returns every live object in ascending OID order, uncommitted
// writes included: what a checkpoint taken inside a single-session
// transaction writes out.
func (s *Store) Objects() []*Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Object, 0, s.objects.n)
	s.objects.each(func(o *Object) { out = append(out, o) })
	return out
}

func (s *Store) classSet(name string) map[types.OID]*Object {
	set := s.byClass[name]
	if set == nil {
		set = make(map[types.OID]*Object)
		s.byClass[name] = set
	}
	return set
}
