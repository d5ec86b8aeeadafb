package engine

import (
	"errors"

	"chimera/internal/object"
	"chimera/internal/types"
)

// ErrReadOnly is returned by every write-shaped operation attempted on a
// read-only transaction.
var ErrReadOnly = errors.New("engine: read-only transaction")

// ReadTxn is a read-only transaction: a pinned, immutable snapshot of
// the committed object store. It is the engine's lock-free read path —
// Begin takes no session slot, reads take no per-OID latches and never
// touch the commit latch, and no rule ever triggers. The price is
// staleness bounded by one commit: a ReadTxn observes the state
// published by the last commit that completed before BeginRead, and
// keeps observing exactly that state (snapshot isolation) until closed.
//
// A ReadTxn holds no resources beyond the snapshot pointer itself —
// there is nothing to leak, and Close exists for API symmetry (it
// invalidates the handle). It is returned by value so the whole
// begin/read/close cycle performs zero heap allocations in steady state.
//
// Unlike a Txn, a ReadTxn is safe for concurrent use: every method reads
// immutable state.
type ReadTxn struct {
	db   *DB
	snap *object.Snapshot
	done bool
}

// BeginRead opens a read-only transaction against the latest published
// snapshot. It never fails and never waits behind a transaction:
// admission control (MaxSessions) governs writers only, and a closed
// database still serves its final published state. When no commit has
// landed since the last BeginRead, pinning is a single atomic load with
// zero allocation; when commits have been staged since, this call
// materializes their deltas into the next snapshot — an O(touched
// shards) rebuild shared by every commit staged in between, serialized
// only against other materializing readers and O(write set) stagings,
// never against open transactions.
func (db *DB) BeginRead() ReadTxn {
	db.m.readTxns.Inc()
	return ReadTxn{db: db, snap: db.store.Published()}
}

// Epoch returns the publication epoch the transaction pinned. Two
// ReadTxns with the same epoch observe bit-identical state.
func (t *ReadTxn) Epoch() uint64 { return t.snap.Epoch() }

// Get returns the snapshot's object with the given OID. The object is
// immutable — a deep copy taken at publication — and must not be
// modified. No event is logged (reads on the snapshot path are
// invisible to rules; use a writing transaction's Select for Chimera's
// event-generating select).
func (t *ReadTxn) Get(oid types.OID) (*object.Object, bool) {
	if t.done {
		return nil, false
	}
	return t.snap.Get(oid)
}

// Select returns the OIDs of the snapshot's extension of the named
// class (objects whose class is or specializes it), ascending. Unlike
// Txn.Select it logs no select events — snapshot reads never feed the
// Event Base.
func (t *ReadTxn) Select(class string) ([]types.OID, error) {
	if t.done {
		return nil, ErrNoTransaction
	}
	return t.snap.Select(class)
}

// Len returns the number of objects in the pinned snapshot, 0 once the
// transaction is closed.
func (t *ReadTxn) Len() int {
	if t.done {
		return 0
	}
	return t.snap.Len()
}

// Snapshot exposes the pinned snapshot itself — a cond.StoreView — so
// condition predicates (e.g. the shell's select-where filter) can
// evaluate against exactly the state the transaction observes. Returns
// nil once the transaction is closed.
func (t *ReadTxn) Snapshot() *object.Snapshot {
	if t.done {
		return nil
	}
	return t.snap
}

// Close invalidates the handle. Idempotent; the snapshot itself is
// unpinned when the ReadTxn value goes out of scope.
func (t *ReadTxn) Close() { t.done = true }

// Write-shaped operations: every one fails with ErrReadOnly, typed so
// callers routing mixed workloads can test with errors.Is.

// Create fails with ErrReadOnly.
func (t *ReadTxn) Create(string, map[string]types.Value) (types.OID, error) {
	return types.NilOID, ErrReadOnly
}

// Modify fails with ErrReadOnly.
func (t *ReadTxn) Modify(types.OID, string, types.Value) error { return ErrReadOnly }

// Delete fails with ErrReadOnly.
func (t *ReadTxn) Delete(types.OID) error { return ErrReadOnly }

// Specialize fails with ErrReadOnly.
func (t *ReadTxn) Specialize(types.OID, string) error { return ErrReadOnly }

// Generalize fails with ErrReadOnly.
func (t *ReadTxn) Generalize(types.OID, string) error { return ErrReadOnly }

// Raise fails with ErrReadOnly.
func (t *ReadTxn) Raise(string) error { return ErrReadOnly }
