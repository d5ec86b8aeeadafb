package object

import (
	"fmt"
	"slices"
	"sync"

	"chimera/internal/schema"
	"chimera/internal/types"
)

// Snapshot is an immutable, epoch-stamped image of the store's committed
// state. A Snapshot is never mutated after publication: readers may hold
// one indefinitely and traverse it without latches, locks or allocation.
// Select alone takes a lock, that of the class-extension cache the
// snapshot shares with its neighbours of the same membership (extents),
// and allocates the copy it returns.
// Objects inside a snapshot are copies of the committed originals, rows
// included (the live store mutates rows in place), so a snapshot object
// can never change underneath a reader. The copies a staging or a full
// publication makes share one arena (see arena): one object that
// survives in the snapshot keeps its whole batch's rows alive until a
// later staging or publication replaces it.
//
// The objects are found through a radix directory (dir) stamped with the
// snapshot's epoch: it shares every node a later commit did not write
// with the snapshot before it, and the snapshots after it share its own.
type Snapshot struct {
	epoch  uint64
	schema *schema.Schema
	objs   dir
	ext    *extents
}

// extents caches class extensions: for each class selected so far, the
// ascending OIDs of the objects whose class is or specializes it.
// Successive snapshots share one cache while the commits between them
// leave every object's presence and class as they were (see
// materialize), so a reader that selects beside a writer that only
// modifies scans each extension once, not once per call. The cache
// holds OIDs only, never an *Object: it keeps no commit's arena alive.
type extents struct {
	mu   sync.Mutex
	oids map[*schema.Class][]types.OID
}

// Epoch returns the snapshot's publication epoch. Epochs increase by one
// per publication; a larger epoch strictly supersedes a smaller one.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Schema returns the catalog the snapshot was published over.
func (sn *Snapshot) Schema() *schema.Schema { return sn.schema }

// Get returns the snapshot's object with the given OID. The returned
// object is immutable.
func (sn *Snapshot) Get(oid types.OID) (*Object, bool) { return sn.objs.get(oid) }

// Len returns the number of objects in the snapshot.
func (sn *Snapshot) Len() int { return sn.objs.n }

// Objects returns the snapshot's objects in ascending OID order: the
// committed objects a checkpoint or a saved snapshot writes out.
func (sn *Snapshot) Objects() []*Object {
	out := make([]*Object, 0, sn.objs.n)
	sn.objs.each(func(o *Object) { out = append(out, o) })
	return out
}

// Select returns the OIDs of all snapshot objects whose class is (or
// specializes) the named class, in ascending OID order — the same
// set-oriented select as Store.Select, evaluated against the frozen
// image instead of the live store. The first Select of a class fills the
// shared cache entry; every call returns a copy the caller owns, nil for
// an empty extension.
func (sn *Snapshot) Select(class string) ([]types.OID, error) {
	target, ok := sn.schema.Class(class)
	if !ok {
		return nil, fmt.Errorf("object: unknown class %q", class)
	}
	sn.ext.mu.Lock()
	ext, ok := sn.ext.oids[target]
	if !ok {
		ext = sn.scan(target)
		if sn.ext.oids == nil {
			sn.ext.oids = make(map[*schema.Class][]types.OID)
		}
		sn.ext.oids[target] = ext
	}
	sn.ext.mu.Unlock()
	if len(ext) == 0 {
		return nil, nil
	}
	return slices.Clone(ext), nil
}

// scan walks the directory for the objects whose class is or
// specializes target and returns their OIDs, ascending.
func (sn *Snapshot) scan(target *schema.Class) []types.OID {
	var out []types.OID
	sn.objs.each(func(o *Object) {
		if o.class.IsA(target) {
			out = append(out, o.oid)
		}
	})
	return out
}

// arena holds the copies one publication makes of live objects: the
// headers in one array, the rows in another, each row capped at its
// length. Sized by reserve, a batch of copies costs two allocations
// whatever its number of objects. A copy never aliases the live row it
// was taken from, which the store goes on mutating in place.
type arena struct {
	objs []Object
	rows []cell
}

// reserve sizes the arena for n objects of width cells in all.
func (a *arena) reserve(n, width int) {
	a.objs, a.rows = make([]Object, 0, n), make([]cell, 0, width)
}

// copy returns a copy of o inside the arena.
func (a *arena) copy(o *Object) *Object {
	i := len(a.rows)
	a.rows = append(a.rows, o.row...)
	a.objs = append(a.objs, Object{oid: o.oid, class: o.class, row: a.rows[i:len(a.rows):len(a.rows)]})
	return &a.objs[len(a.objs)-1]
}

// Published returns the latest snapshot, materializing any staged
// commits first. The steady-state path — no commit since the last call —
// is a single atomic flag check plus an atomic load: no locks, no
// allocation. When commits have been staged, the calling reader pays one
// materialization (copying the directory's paths to the leaves the
// staged write sets touch); commits staged since the last reader share
// that one rebuild.
func (s *Store) Published() *Snapshot {
	if !s.stale.Load() {
		if sn := s.published.Load(); sn != nil {
			return sn
		}
	}
	return s.materialize()
}

// materialize folds the pending delta map into a successor snapshot and
// publishes it. The successor's directory starts as the previous one
// under the successor's epoch, so writing each pending OID copies the
// nodes on its path the successor does not own yet and shares every
// other node; epochs only grow, so no node an earlier snapshot reaches
// is written. It reads only pre-cloned pending objects and the previous
// snapshot's immutable nodes — never the live store — so it takes no
// store mutex and no latches; pendMu alone serializes it against staging
// commits and concurrent readers. The pending map is the net delta of
// every commit staged since the previous snapshot: when each OID in it
// was absent before and after, or present both times with the same
// class, every class extension is unchanged and the successor takes over
// the previous snapshot's extension cache; otherwise it starts a fresh
// one.
func (s *Store) materialize() *Snapshot {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	prev := s.published.Load()
	if len(s.pending) == 0 {
		// A racing reader already materialized (or nothing was ever
		// staged); prev carries every staged commit.
		s.stale.Store(false)
		return prev
	}
	next := &Snapshot{epoch: s.epoch.Load(), schema: s.pendSchema}
	if prev != nil {
		next.objs = prev.objs
	}
	next.objs.epoch = next.epoch
	same := prev != nil && prev.schema == next.schema
	for oid, o := range s.pending {
		if same {
			old, had := next.objs.get(oid)
			same = had == (o != nil) && (o == nil || old.class == o.class)
		}
		if o != nil {
			next.objs.set(oid, o)
		} else {
			next.objs.del(oid)
		}
	}
	if same {
		next.ext = prev.ext
	} else {
		next.ext = &extents{}
	}
	clear(s.pending)
	s.published.Store(next)
	s.stale.Store(false)
	return next
}

// PublishAll publishes a fresh snapshot of the entire committed store
// under a new epoch, discarding any staged deltas (the full copy
// supersedes them). Used at engine open, snapshot load and recovery;
// per-commit publication uses StageTouched. open, when not nil, is the
// one line holding uncommitted state (the transaction recovery hands
// back open): its undo log is applied to the snapshot's copies, so the
// snapshot holds the committed state. The caller must guarantee no
// other line holds uncommitted state (publication copies whatever is
// live). The snapshot's directory is built afresh, sharing no node with
// the previous snapshot's.
func (s *Store) PublishAll(open *Line) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	next := &Snapshot{epoch: s.epoch.Add(1), schema: s.schema, ext: &extents{}}
	next.objs.epoch = next.epoch
	var a arena
	width := 0
	s.objects.each(func(o *Object) { width += len(o.row) })
	a.reserve(s.objects.n, width)
	s.objects.each(func(o *Object) { next.objs.set(o.oid, a.copy(o)) })
	if open != nil {
		// The copies are the snapshot's own, and so is every node of its
		// directory: undoing open's writes on them touches nothing live.
		img := &Store{schema: s.schema, objects: next.objs, byClass: map[string]map[types.OID]*Object{}}
		for i := len(open.undo) - 1; i >= 0; i-- {
			open.undo[i].apply(img)
		}
		next.objs = img.objects
	}
	clear(s.pending)
	s.published.Store(next)
	s.stale.Store(false)
}

// StageTouched stages a commit's write set for publication: each OID
// present in the live store is copied into the pending delta map, each
// absent OID is staged as a delete. The copies share one arena, two
// allocations per commit. Cost is O(write set) — no directory writes;
// those are deferred to the first Published() call that observes the
// staged state, so write-only workloads never pay them.
//
// The engine calls this under its commit mutex — stagings are serialized
// in commit order — and while the committing line still holds its
// exclusive latches on the touched OIDs, which guarantees the live values
// copied here are the committed ones and cannot be mutated mid-copy by
// another line. Each call advances the logical epoch by one, so epochs
// still count commits even when several stagings share one rebuild.
func (s *Store) StageTouched(oids []types.OID) {
	if len(oids) == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	if s.pending == nil {
		s.pending = make(map[types.OID]*Object)
	}
	n, width := 0, 0
	for _, oid := range oids {
		if o, ok := s.objects.get(oid); ok {
			n, width = n+1, width+len(o.row)
		}
	}
	var a arena
	if n > 0 {
		a.reserve(n, width)
	}
	for _, oid := range oids {
		if o, ok := s.objects.get(oid); ok {
			s.pending[oid] = a.copy(o)
		} else {
			s.pending[oid] = nil
		}
	}
	s.pendSchema = s.schema
	s.epoch.Add(1)
	s.stale.Store(true)
}

// PublishedEpoch returns the logical publication epoch: one tick per
// staged commit or full publication, whether or not a reader has
// materialized the snapshot yet (0 if nothing was ever published).
func (s *Store) PublishedEpoch() uint64 {
	return s.epoch.Load()
}
