package engine_test

import (
	"testing"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// TestCost_UndoFollowsObjectsTouched is the undo log's scaling row: on
// one long line whose rule actions modify the same k objects in every
// one of n blocks, the line's undo log, and the undo frame of a
// checkpoint cut on it, hold one entry per object after every accepted
// block — k at n = 100 as at n = 10 000, not n·k.
func TestCost_UndoFollowsObjectsTouched(t *testing.T) {
	const k = 8
	for _, n := range []int{100, 10_000} {
		store := storage.NewMemStore()
		db, err := engine.Open(engine.Options{
			Durability: engine.DurabilityOptions{Store: store, Fsync: engine.FsyncOff}})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DefineClass("c", schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
			t.Fatal(err)
		}
		if err := db.DefineRule(rules.Def{Name: "bump", Event: calculus.P(event.External("tick"))},
			engine.Body{
				Condition: cond.Formula{Atoms: []cond.Atom{cond.Class{Class: "c", Var: "X"}}},
				Action: act.Action{Statements: []act.Statement{act.Modify{Class: "c", Attr: "n", Var: "X",
					Value: cond.Arith{Op: cond.OpAdd, L: cond.Attr{Var: "X", Attr: "n"}, R: cond.Const{V: types.Int(1)}}}}},
			}); err != nil {
			t.Fatal(err)
		}
		if err := db.Run(func(tx *engine.Txn) error {
			for i := 0; i < k; i++ {
				if _, err := tx.Create("c", map[string]types.Value{"n": types.Int(0)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tx.Raise("tick"); err != nil {
				t.Fatal(err)
			}
			if err := tx.EndLine(); err != nil {
				t.Fatal(err)
			}
			if got := tx.UndoLen(); got != k {
				t.Fatalf("n=%d block %d: undo log holds %d entries, want %d", n, i, got, k)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckpt, err := store.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := engine.CheckpointUndo(ckpt); err != nil || got != k {
			t.Fatalf("n=%d: checkpoint undo frame holds %d entries (%v), want %d", n, got, err, k)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
