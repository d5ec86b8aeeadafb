package torture

import (
	"errors"
	"testing"

	"chimera"
	"chimera/internal/engine"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// durTortureOpts is the durable budgeted configuration: MemStore WAL
// (durable on append), small segments, a gas ceiling.
func durTortureOpts(store engine.SegmentStore, gas int64) chimera.Options {
	opts := chimera.DefaultOptions()
	opts.Durability = engine.DurabilityOptions{Store: store, Fsync: engine.FsyncOff}
	opts.SegmentSize = 8
	opts.GasLimit = gas
	return opts
}

// TestTorture_Durability_CrashDuringBudgetKill commits a prefix, then
// opens a transaction that is budget-killed in its first block and
// "crashes" (clones the store) at three instants: before the kill, at
// the moment of the kill (rollback not yet logged), and after the
// rollback. All three clones must recover to the same committed state
// — the killed block's ops never reached the WAL — and the recovered
// engine must be fully usable, budgets included.
func TestTorture_Durability_CrashDuringBudgetKill(t *testing.T) {
	store := storage.NewMemStore()
	// Gas below one adversarial sweep's cost: any flood of the hot
	// classes dies in its first triggering determination, while the
	// rule-free "plain" class leaves the budget untouched.
	const gas = 50
	db, err := engine.Open(durTortureOpts(store, gas))
	if err != nil {
		t.Fatal(err)
	}
	if err := chimera.Load(db, "class plain (n: integer)\n"+adversarialProgram(31, 4, 16, 3)); err != nil {
		t.Fatal(err)
	}
	// Committed prefix: rule-free objects, no triggering pressure.
	if err := db.Run(func(tx *chimera.Txn) error {
		for i := 0; i < 3; i++ {
			if _, err := tx.Create("plain", map[string]types.Value{
				"n": types.Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("committed prefix: %v", err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	boundaryClone := store.Clone()

	// The doomed transaction: flood enough occurrences before the first
	// block boundary that the very first triggering determination blows
	// the gas budget — nothing of this transaction ever reaches the WAL
	// except its begin record.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := flood(tx, 200, 3); err != nil {
		t.Fatal(err)
	}
	err = tx.EndLine()
	if !errors.Is(err, chimera.ErrGasExhausted) {
		t.Fatalf("want ErrGasExhausted in the first block, got %v", err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	killClone := store.Clone() // crash before the rollback is logged
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	rollbackClone := store.Clone() // crash after the rollback record

	recoverState := func(name string, clone *storage.MemStore) string {
		t.Helper()
		rdb, rtx, _, err := engine.Recover(durTortureOpts(clone, gas))
		if err != nil {
			t.Fatalf("%s: recover: %v", name, err)
		}
		if rtx != nil {
			// A trailing open (empty) transaction is legal for the
			// kill-instant clone; it must hold no occurrences.
			if got := rtx.Base().Len(); got != 0 {
				t.Fatalf("%s: recovered open transaction holds %d occurrences; the killed block leaked into the WAL", name, got)
			}
			if err := rtx.Rollback(); err != nil {
				t.Fatalf("%s: rollback recovered txn: %v", name, err)
			}
		}
		fp := objFingerprint(rdb)
		// The recovered engine must still work — and still enforce its
		// budget on a fresh adversarial flood.
		if err := rdb.Run(func(tx *chimera.Txn) error {
			_, err := tx.Create("plain", map[string]types.Value{"n": types.Int(99)})
			return err
		}); err != nil {
			t.Fatalf("%s: recovered engine unusable: %v", name, err)
		}
		ktx, err := rdb.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := flood(ktx, 200, 3); err != nil {
			t.Fatal(err)
		}
		if err := ktx.EndLine(); !errors.Is(err, chimera.ErrGasExhausted) {
			t.Fatalf("%s: recovered engine lost its budget: %v", name, err)
		}
		if err := ktx.Rollback(); err != nil {
			t.Fatal(err)
		}
		return fp
	}

	want := recoverState("boundary", boundaryClone)
	if got := recoverState("kill-instant", killClone); got != want {
		t.Fatalf("crash at the kill instant diverged from the committed state:\n%s\nwant:\n%s", got, want)
	}
	if got := recoverState("post-rollback", rollbackClone); got != want {
		t.Fatalf("crash after rollback diverged from the committed state:\n%s\nwant:\n%s", got, want)
	}
}

// TestTorture_Durability_KillsAcrossCommits interleaves committed
// transactions with budget-killed ones on a durable engine, crash-
// cloning after every kill: each recovery must land exactly on the
// state of the commits so far, never seeing a killed transaction.
func TestTorture_Durability_KillsAcrossCommits(t *testing.T) {
	store := storage.NewMemStore()
	const gas = 50
	db, err := engine.Open(durTortureOpts(store, gas))
	if err != nil {
		t.Fatal(err)
	}
	if err := chimera.Load(db, "class plain (n: integer)\n"+adversarialProgram(37, 4, 16, 3)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		// One committed transaction on the rule-free class...
		if err := db.Run(func(tx *chimera.Txn) error {
			_, err := tx.Create("plain", map[string]types.Value{
				"n": types.Int(int64(round))})
			return err
		}); err != nil {
			t.Fatalf("round %d commit: %v", round, err)
		}
		want := objFingerprint(db)
		// ...then a budget-killed one, with a crash right at the kill.
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := flood(tx, 200, 3); err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); !errors.Is(err, chimera.ErrGasExhausted) {
			t.Fatalf("round %d: want ErrGasExhausted, got %v", round, err)
		}
		if err := db.SyncWAL(); err != nil {
			t.Fatal(err)
		}
		clone := store.Clone()
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		rdb, rtx, _, err := engine.Recover(durTortureOpts(clone, gas))
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		if rtx != nil {
			if err := rtx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		if got := objFingerprint(rdb); got != want {
			t.Fatalf("round %d: recovery saw the killed transaction:\n%s\nwant:\n%s", round, got, want)
		}
	}
	if got := db.Stats().GasKills; got != 4 {
		t.Fatalf("GasKills = %d, want 4", got)
	}
}
