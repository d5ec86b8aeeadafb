package engine_test

import (
	"errors"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// A retention window set in a block that is then refused stays the
// line's, and reaches the log with the next accepted block: the
// transaction Recover hands back compacts at the same bound.
func TestRefusalKeepsRetentionDurable(t *testing.T) {
	store := storage.NewMemStore()
	o := engine.Options{MaxEvents: 8, Durability: engine.DurabilityOptions{Store: store, Fsync: engine.FsyncOff}}
	db, err := engine.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRetention(5); err != nil {
		t.Fatal(err)
	}
	var refused error
	for i := 0; i < 10 && refused == nil; i++ {
		refused = tx.Emit(event.External("flood"), types.NilOID)
	}
	if !errors.Is(refused, engine.ErrEventLimit) {
		t.Fatalf("flood: %v, want ErrEventLimit", refused)
	}
	if err := tx.Raise("calm"); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	o.Durability.Store = store.Clone()
	re, rtx, _, err := engine.Recover(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := rtx.Base().Retention(); got != 5 {
		t.Fatalf("recovered retention window %d, want 5", got)
	}
	for _, d := range []*engine.DB{re, db} {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
