package object

import (
	"fmt"
	"slices"
	"time"

	"chimera/internal/schema"
	"chimera/internal/types"
)

// Line is one transaction line's session over the store: its private
// undo log plus the latches it holds. Mutations apply in place to the
// shared store under strict two-phase latching — an exclusive latch per
// written OID, exclusive latches up the class chain for extension
// changes, shared latches for reads, all held until Commit or Rollback —
// so concurrent lines on disjoint data proceed fully in parallel while
// overlapping lines serialize (or fail fast with ErrConflict) at the
// exact objects and classes they contend on.
//
// A Line is used by a single goroutine; distinct Lines of one Store are
// safe to use concurrently. An ended line keeps its undo log's, latch
// list's and write set's storage, within keptEntries each, and its image
// rows' storage, within keptCells, for Reopen.
type Line struct {
	s    *Store
	id   uint64
	solo bool
	wait time.Duration
	m    LatchMetrics
	// undo is the line's undo log: undo[:folded] one image per object the
	// accepted blocks touched, undo[folded:] one entry per mutation since
	// the last savepoint. index maps each imaged OID to its image; fresh
	// is Savepoint's scratch. rows is the storage of the images' rows:
	// each takes the next range of it (imageRow).
	undo   []undoEntry
	folded int
	index  map[types.OID]int32
	fresh  []undoEntry
	rows   []cell
	held   []heldLatch
	// touched is TouchedOIDs' result.
	touched []types.OID
	done    bool
}

// keptEntries bounds the storage an ended line keeps of each of its
// slices and of its image index: what a short transaction uses, so a
// line that once latched or touched thousands of objects does not pin
// that much memory while it waits for Reopen.
const keptEntries = 32

// keptCells bounds the image row storage an ended line keeps: the rows
// of keptEntries objects of eight attributes.
const keptCells = 8 * keptEntries

type heldLatch struct {
	k  latchKey
	la *latch
}

// LineOptions configures a Line.
type LineOptions struct {
	// Wait bounds how long a conflicting latch acquisition blocks before
	// ErrConflict: negative blocks indefinitely, zero is a try-latch
	// (immediate ErrConflict), positive waits up to that long.
	Wait time.Duration
	// Solo declares the line is the store's only writer (the engine's
	// single-session mode): latching is skipped entirely and aborted
	// creations roll the OID allocator back, reproducing the sequential
	// store bit for bit.
	Solo bool
	// Metrics instruments latch waits and conflicts; the zero value
	// disables reporting.
	Metrics LatchMetrics
}

// BeginLine opens a transaction line over the store.
func (s *Store) BeginLine(opts LineOptions) *Line {
	ln := &Line{s: s}
	ln.open(opts)
	return ln
}

// Reopen opens a new line over the same store in ln, which has ended
// (Commit or Rollback): the new line is indistinguishable from one
// BeginLine returns, except that it writes into the storage ln kept.
func (ln *Line) Reopen(opts LineOptions) {
	if !ln.done {
		panic("object: Reopen of an open line")
	}
	ln.open(opts)
}

func (ln *Line) open(opts LineOptions) {
	ln.id = ln.s.nextLine.Add(1)
	ln.solo, ln.wait, ln.m = opts.Solo, opts.Wait, opts.Metrics
	ln.done = false
}

func (ln *Line) checkOpen() error {
	if ln == nil || ln.done {
		return fmt.Errorf("object: line is closed")
	}
	return nil
}

// latch acquires one latch in the requested mode, recording it for
// release at line end. Already-held latches (including shared→exclusive
// upgrades) stay single entries.
func (ln *Line) latch(k latchKey, exclusive bool) error {
	if ln.solo {
		return nil
	}
	la := ln.s.latches.get(k)
	isNew, err := la.acquire(ln.id, exclusive, ln.wait, &ln.m)
	ln.s.latches.put(k, la, true)
	if err != nil {
		return err
	}
	if isNew {
		ln.held = append(ln.held, heldLatch{k, la})
	}
	return nil
}

// latchClassChain exclusively latches class and every superclass up to
// the root: extension changes conflict with any reader holding a shared
// latch on an ancestor (Select latches exactly the class it scans, and
// membership in a scan is membership in every ancestor's extension).
func (ln *Line) latchClassChain(class string) error {
	if ln.solo {
		return nil
	}
	c, ok := ln.s.schema.Class(class)
	if !ok {
		return fmt.Errorf("object: unknown class %q", class)
	}
	for ; c != nil; c = c.Parent() {
		if err := ln.latch(latchKey{class: c.Name()}, true); err != nil {
			return err
		}
	}
	return nil
}

// Create instantiates a new object, exclusively latching the class chain
// (an extension change) and the fresh OID (so no other line observes the
// uncommitted object).
func (ln *Line) Create(class string, vals map[string]types.Value) (types.OID, error) {
	if err := ln.checkOpen(); err != nil {
		return types.NilOID, err
	}
	if err := ln.latchClassChain(class); err != nil {
		return types.NilOID, err
	}
	ln.s.mu.Lock()
	oid, err := ln.s.createLocked(class, vals, &ln.undo, ln.solo)
	ln.s.mu.Unlock()
	if err != nil {
		return types.NilOID, err
	}
	// The fresh OID's latch is necessarily free; this cannot block.
	if err := ln.latch(latchKey{oid: oid}, true); err != nil {
		return types.NilOID, err
	}
	return oid, nil
}

// CreateWithOID instantiates an object at an explicit OID, latching the
// class chain and the OID like Create. It exists for multi-session WAL
// replay, where creations must land at their logged identities rather
// than wherever the allocator happens to be (see Store.createAtLocked).
func (ln *Line) CreateWithOID(oid types.OID, class string, vals map[string]types.Value) error {
	if err := ln.checkOpen(); err != nil {
		return err
	}
	if err := ln.latchClassChain(class); err != nil {
		return err
	}
	if err := ln.latch(latchKey{oid: oid}, true); err != nil {
		return err
	}
	ln.s.mu.Lock()
	defer ln.s.mu.Unlock()
	return ln.s.createAtLocked(oid, class, vals, &ln.undo)
}

// Modify sets one attribute, exclusively latching the OID.
func (ln *Line) Modify(oid types.OID, attr string, v types.Value) error {
	if err := ln.checkOpen(); err != nil {
		return err
	}
	if err := ln.latch(latchKey{oid: oid}, true); err != nil {
		return err
	}
	ln.s.mu.Lock()
	defer ln.s.mu.Unlock()
	return ln.s.modifyLocked(oid, attr, v, &ln.undo)
}

// Delete removes an object, exclusively latching the OID and the class
// chain (an extension change).
func (ln *Line) Delete(oid types.OID) error {
	if err := ln.checkOpen(); err != nil {
		return err
	}
	if err := ln.latch(latchKey{oid: oid}, true); err != nil {
		return err
	}
	// With the OID exclusively latched no other line can migrate the
	// object, so its class chain is stable while we latch it.
	class, err := ln.classOf(oid)
	if err != nil {
		return err
	}
	if err := ln.latchClassChain(class); err != nil {
		return err
	}
	ln.s.mu.Lock()
	defer ln.s.mu.Unlock()
	return ln.s.deleteLocked(oid, &ln.undo)
}

// Specialize moves an object down the hierarchy into sub, a subclass of
// its current class; its attributes are preserved.
func (ln *Line) Specialize(oid types.OID, sub string) error {
	return ln.migrate(oid, sub, true)
}

// Generalize moves an object up the hierarchy into super, a superclass
// of its current class; attributes the superclass lacks are dropped.
func (ln *Line) Generalize(oid types.OID, super string) error {
	return ln.migrate(oid, super, false)
}

func (ln *Line) migrate(oid types.OID, to string, down bool) error {
	if err := ln.checkOpen(); err != nil {
		return err
	}
	if err := ln.latch(latchKey{oid: oid}, true); err != nil {
		return err
	}
	class, err := ln.classOf(oid)
	if err != nil {
		return err
	}
	// Both extensions change; the two chains share the longer one's
	// suffix, and latches are reentrant, so latching both is one pass.
	if err := ln.latchClassChain(class); err != nil {
		return err
	}
	if err := ln.latchClassChain(to); err != nil {
		return err
	}
	ln.s.mu.Lock()
	defer ln.s.mu.Unlock()
	return ln.s.migrateLocked(oid, to, down, &ln.undo)
}

func (ln *Line) classOf(oid types.OID) (string, error) {
	ln.s.mu.RLock()
	defer ln.s.mu.RUnlock()
	o, ok := ln.s.objects[oid]
	if !ok {
		return "", fmt.Errorf("object: no object %s", oid)
	}
	return o.class.Name(), nil
}

// Get reads an object under a shared OID latch held to line end, so the
// returned pointer stays consistent (no other line can modify, delete or
// migrate it) for the rest of the line. A latch conflict reads as a
// missing object; use Fetch to tell the two apart.
func (ln *Line) Get(oid types.OID) (*Object, bool) {
	o, err := ln.Fetch(oid)
	return o, err == nil
}

// Fetch is Get with an error result distinguishing a latch conflict
// (ErrConflict) from a missing object.
func (ln *Line) Fetch(oid types.OID) (*Object, error) {
	if err := ln.checkOpen(); err != nil {
		return nil, err
	}
	if err := ln.latch(latchKey{oid: oid}, false); err != nil {
		return nil, err
	}
	o, ok := ln.s.Get(oid)
	if !ok {
		return nil, fmt.Errorf("object: no object %s", oid)
	}
	return o, nil
}

// Select returns the OIDs of the named class's live extension under a
// shared class latch held to line end: uncommitted extension changes by
// other lines (which hold the class chain exclusively) either complete
// before the scan or wait behind it, so the scan observes no half-done
// line.
func (ln *Line) Select(class string) ([]types.OID, error) {
	if err := ln.checkOpen(); err != nil {
		return nil, err
	}
	if _, ok := ln.s.schema.Class(class); !ok {
		return nil, fmt.Errorf("object: unknown class %q", class)
	}
	if err := ln.latch(latchKey{class: class}, false); err != nil {
		return nil, err
	}
	return ln.s.Select(class)
}

// Schema returns the catalog of the underlying store.
func (ln *Line) Schema() *schema.Schema { return ln.s.schema }

// TouchedOIDs returns the distinct OIDs the line has created, modified,
// deleted or migrated, ascending. The engine captures this write set
// just before Commit (which discards the undo log it is derived from) to
// drive snapshot publication. The slice is the line's: it is valid until
// the next TouchedOIDs or Reopen.
func (ln *Line) TouchedOIDs() []types.OID {
	if len(ln.undo) == 0 {
		return nil
	}
	out := slices.Grow(ln.touched[:0], len(ln.undo))
	for i := range ln.undo {
		out = append(out, ln.undo[i].oid)
	}
	slices.Sort(out)
	ln.touched = slices.Compact(out)
	return ln.touched
}

// Savepoint accepts every mutation since the previous savepoint and
// returns the undo length RollbackTo rewinds to. The accepted entries
// fold into the log of images: an object the log already holds an image
// of needs nothing more, any other gets its image as the block found it,
// computed by reversing the block's entries on a copy of its current
// state. The log therefore holds one entry per object the line touched
// plus one per mutation of the open block, however many blocks the line
// runs. Once every object a long line touches is imaged, a savepoint
// allocates nothing.
func (ln *Line) Savepoint() int {
	raw := ln.undo[ln.folded:]
	if len(raw) == 0 {
		return ln.folded
	}
	if ln.index == nil {
		ln.index = make(map[types.OID]int32)
	}
	first := int32(ln.folded)
	fresh := ln.fresh[:0]
	for i := range raw {
		e := &raw[i]
		if _, ok := ln.index[e.oid]; ok {
			continue
		}
		ln.index[e.oid] = first + int32(len(fresh))
		img := undoEntry{oid: e.oid}
		if e.kind == undoCreate {
			// Created in the block: absent before it, whatever followed.
			img.kind, img.class, img.reuse = undoCreate, e.class, e.reuse
		}
		fresh = append(fresh, img)
	}
	if len(fresh) > 0 {
		ln.s.mu.RLock()
		for i := len(raw) - 1; i >= 0; i-- {
			k := ln.index[raw[i].oid] - first
			if k < 0 || fresh[k].kind == undoCreate {
				continue // imaged before the block, or created in it
			}
			img := &fresh[k]
			if img.kind == 0 {
				// The object's newest entry: start from its current state
				// (a deleted object's image comes from its delete entry).
				img.kind = undoDelete
				if o, ok := ln.s.objects[img.oid]; ok {
					img.class, img.row = o.class.Name(), ln.imageRow(o.row)
				}
			}
			raw[i].unapply(img, ln.s.schema)
		}
		ln.s.mu.RUnlock()
	}
	n := ln.folded + copy(raw, fresh)
	clear(ln.undo[n:])
	ln.undo, ln.folded = ln.undo[:n], n
	clear(fresh)
	ln.fresh = fresh[:0]
	return n
}

// imageRow copies row into the line's image storage. Images take
// consecutive ranges of one buffer, each capped at its length; a full
// buffer is left to the images in it and a larger one started, so an
// image row is never moved and never aliases a live row.
func (ln *Line) imageRow(row []cell) []cell {
	if cap(ln.rows)-len(ln.rows) < len(row) {
		ln.rows = make([]cell, 0, max(2*cap(ln.rows), len(row), keptEntries))
	}
	i := len(ln.rows)
	ln.rows = append(ln.rows, row...)
	return ln.rows[i:len(ln.rows):len(ln.rows)]
}

// RollbackTo undoes, newest first, every undo entry past the first n
// — the mutations since the savepoint that returned n — and keeps the
// line open with its latches. RollbackTo(0) undoes the whole line.
func (ln *Line) RollbackTo(n int) {
	if ln.checkOpen() != nil || n >= len(ln.undo) {
		return
	}
	ln.s.mu.Lock()
	for i := len(ln.undo) - 1; i >= n; i-- {
		ln.undo[i].apply(ln.s)
	}
	ln.s.mu.Unlock()
	if n < ln.folded {
		for _, e := range ln.undo[n:ln.folded] {
			delete(ln.index, e.oid)
		}
		ln.folded = n
	}
	clear(ln.undo[n:])
	ln.undo = ln.undo[:n]
}

// UndoRec is the serializable image of one undo entry. The engine
// persists an open transaction's undo log inside its checkpoint so a
// rollback replayed after a crash can still reverse mutations older
// than the checkpoint (the WAL prefix holding them is truncated). A
// record names attributes, not slots: Attr for a modify, whose Class is
// empty; Vals for a delete (every set attribute) and for a
// generalization (the set attributes it dropped, nil if none).
type UndoRec struct {
	Kind  uint8
	OID   types.OID
	Class string
	Attr  string
	Val   types.Value
	Had   bool
	Vals  map[string]types.Value
	Reuse bool
}

// ExportUndo returns the line's undo log as serializable records,
// oldest first. Values are copied, freezing the records against later
// mutations by the still-open line.
func (ln *Line) ExportUndo() []UndoRec {
	recs := make([]UndoRec, len(ln.undo))
	for i, e := range ln.undo {
		r := UndoRec{Kind: uint8(e.kind), OID: e.oid, Class: e.class, Reuse: e.reuse}
		c, _ := ln.s.schema.Class(e.class)
		switch e.kind {
		case undoModify:
			r.Class, r.Attr, r.Val, r.Had = "", c.Attributes()[e.slot].Name, e.old.v, e.old.set
		case undoDelete:
			r.Vals = setVals(c, e.row, map[string]types.Value{})
		case undoMigrate:
			r.Vals = setVals(c, e.row, nil)
		}
		recs[i] = r
	}
	return recs
}

// setVals adds the set cells of tail, the last cells of a row of c, to
// vals by attribute name, making vals if it is nil and a cell is set.
func setVals(c *schema.Class, tail []cell, vals map[string]types.Value) map[string]types.Value {
	attrs := c.Attributes()[len(c.Attributes())-len(tail):]
	for i, x := range tail {
		if x.set {
			if vals == nil {
				vals = make(map[string]types.Value)
			}
			vals[attrs[i].Name] = x.v
		}
	}
	return vals
}

// RestoreUndo replaces the line's undo log with previously exported
// records — recovery reinstates the checkpointed log into the reopened
// transaction's line before replaying the WAL suffix — and accepts them
// (Savepoint): the store must hold the state they were exported at.
func (ln *Line) RestoreUndo(recs []UndoRec) error {
	undo, err := ln.s.undoOf(recs)
	if err != nil {
		return err
	}
	ln.undo, ln.folded, ln.index = undo, 0, nil
	ln.Savepoint()
	return nil
}

// undoOf turns exported records back into undo entries over the store's
// current state. A modify's attribute resolves to a slot of the class
// its object had then: the class the object's next migration or deletion
// in the log restores, or else its class in the store; so the records
// are read newest first.
func (s *Store) undoOf(recs []UndoRec) ([]undoEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	undo := make([]undoEntry, len(recs))
	classAt := make(map[types.OID]*schema.Class)
	for i := len(recs) - 1; i >= 0; i-- {
		r := &recs[i]
		k := undoKind(r.Kind)
		if k < undoCreate || k > undoMigrate {
			return nil, fmt.Errorf("object: unknown undo kind %d", r.Kind)
		}
		e := undoEntry{kind: k, oid: r.OID, class: r.Class, reuse: r.Reuse}
		after, ok := classAt[r.OID]
		if !ok {
			if o, live := s.objects[r.OID]; live {
				after = o.class
			}
		}
		switch k {
		case undoCreate:
			classAt[r.OID] = nil
		case undoModify:
			if after == nil {
				return nil, fmt.Errorf("object: undo modifies %s, which does not exist", r.OID)
			}
			slot, ok := after.Slot(r.Attr)
			if !ok {
				return nil, fmt.Errorf("object: undo modifies %s.%s, which class %q lacks", r.OID, r.Attr, after.Name())
			}
			e.class, e.slot, e.old = after.Name(), int32(slot), cell{v: r.Val, set: r.Had}
		case undoDelete, undoMigrate:
			c, ok := s.schema.Class(r.Class)
			if !ok {
				return nil, fmt.Errorf("object: undo restores unknown class %q", r.Class)
			}
			// A delete restores the whole row; a generalization the row's
			// tail from its first dropped attribute on, which must lie past
			// every slot of the class it left the object in.
			lo := 0
			if k == undoMigrate {
				lo = len(c.Attributes())
				for name := range r.Vals {
					if slot, ok := c.Slot(name); ok {
						lo = min(lo, slot)
					}
				}
				if len(r.Vals) > 0 && after != nil && lo < len(after.Attributes()) {
					return nil, fmt.Errorf("object: undo of %s restores attributes class %q keeps", r.OID, after.Name())
				}
			}
			e.row = make([]cell, len(c.Attributes())-lo)
			for name, v := range r.Vals {
				slot, ok := c.Slot(name)
				if !ok {
					return nil, fmt.Errorf("object: undo restores %s.%s, which class %q lacks", r.OID, name, c.Name())
				}
				e.row[slot-lo] = cell{v: v, set: true}
			}
			classAt[r.OID] = c
		}
		undo[i] = e
	}
	return undo, nil
}

// Commit ends the line keeping its mutations: the undo log is discarded
// and every latch released, publishing the writes to all lines.
func (ln *Line) Commit() {
	if ln.checkOpen() != nil {
		return
	}
	ln.finish()
}

// Rollback ends the line undoing every mutation it performed
// (RollbackTo(0)), then releases its latches.
func (ln *Line) Rollback() {
	if ln.checkOpen() != nil {
		return
	}
	ln.RollbackTo(0)
	ln.finish()
}

// finish releases the line's latches and empties its state, keeping the
// storage Reopen reuses.
func (ln *Line) finish() {
	for i := len(ln.held) - 1; i >= 0; i-- {
		h := ln.held[i]
		h.la.release(ln.id)
		ln.s.latches.put(h.k, h.la, false)
	}
	ln.held = kept(ln.held)
	ln.undo, ln.folded = kept(ln.undo), 0
	ln.fresh = kept(ln.fresh)
	ln.rows = keptN(ln.rows, keptCells)
	ln.touched = kept(ln.touched)
	if len(ln.index) > keptEntries {
		ln.index = nil
	} else {
		clear(ln.index)
	}
	ln.done = true
}

// kept empties s, dropping what its entries refer to, and returns it for
// the line's next use, or nil when its storage is past keptEntries.
func kept[T any](s []T) []T { return keptN(s, keptEntries) }

// keptN is kept with the bound n.
func keptN[T any](s []T, n int) []T {
	clear(s)
	if cap(s) > n {
		return nil
	}
	return s[:0]
}
