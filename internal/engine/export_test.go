package engine

import (
	"chimera/internal/calculus"
	"chimera/internal/types"
)

// CheckpointOIDs decodes checkpoint bytes and returns the OIDs of the
// objects frame in the order they were written.
func CheckpointOIDs(data []byte) ([]types.OID, error) {
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	oids := make([]types.OID, len(ck.Objects))
	for i, o := range ck.Objects {
		oids[i] = o.OID
	}
	return oids, nil
}

// DecodeCheckpoint parses checkpoint bytes, reporting only the error.
func DecodeCheckpoint(data []byte) error {
	_, err := decodeCheckpoint(data)
	return err
}

// CondPlan returns the condition plan the rules' conditions are interned
// into.
func (db *DB) CondPlan() *calculus.Plan { return db.conds }

// IdleContexts returns the number of idle condition contexts: one in
// each ended line's idle work.
func (db *DB) IdleContexts() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.idle)
}

// CheckpointUndo decodes checkpoint bytes and returns the number of
// entries in the open transaction's undo frame.
func CheckpointUndo(data []byte) (int, error) {
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return 0, err
	}
	return len(ck.Undo), nil
}

// UndoLen returns the number of entries in the line's undo log.
func (t *Txn) UndoLen() int { return len(t.line.ExportUndo()) }
