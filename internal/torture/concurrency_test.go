package torture

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"chimera"
	"chimera/internal/types"
)

// TestTorture_Concurrency_KilledSessionReleasesPeers is the satellite
// regression for the engine.Run rollback audit: a latch-holding session
// that is budget-killed mid-sweep must roll back and release its
// latches, and a peer contending for the same object must then commit —
// a killed session never deadlocks its peers.
func TestTorture_Concurrency_KilledSessionReleasesPeers(t *testing.T) {
	opts := adversarialOpts(500)
	opts.MaxSessions = 2
	opts.LockWait = 20 * time.Millisecond
	db := chimera.OpenWith(opts)
	// Rules cover only the generated hot classes; the contended object
	// is rule-free so the peer's work stays far under budget.
	if err := chimera.Load(db, "class plain (n: integer)\n"+adversarialProgram(23, 6, 20, 3)); err != nil {
		t.Fatal(err)
	}
	var contended types.OID
	if err := db.Run(func(tx *chimera.Txn) error {
		oid, err := tx.Create("plain", map[string]types.Value{"n": types.Int(0)})
		contended = oid
		return err
	}); err != nil {
		t.Fatal(err)
	}

	latched := make(chan struct{})
	killerDone := make(chan error, 1)
	go func() {
		killerDone <- func() error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			// Take the exclusive latch on the contended object, then flood
			// hot events until the gas budget kills the sweep.
			if err := tx.Modify(contended, "n", types.Int(1)); err != nil {
				tx.Rollback() //nolint:errcheck
				return err
			}
			close(latched)
			for i := 0; i < 256; i++ {
				if err := flood(tx, 16, 3); err != nil {
					tx.Rollback() //nolint:errcheck
					return err
				}
				if err := tx.EndLine(); err != nil {
					if rerr := tx.Rollback(); rerr != nil {
						return fmt.Errorf("rollback after kill: %w", rerr)
					}
					return err // the expected budget fault
				}
			}
			tx.Rollback() //nolint:errcheck
			return errors.New("flood never killed")
		}()
	}()

	<-latched
	// The peer retries against the latched object until the killed
	// session rolls back and frees it.
	deadline := time.Now().Add(10 * time.Second)
	committed := false
	for !committed {
		if time.Now().After(deadline) {
			t.Fatal("peer never committed: killed session did not release its latches")
		}
		err := db.Run(func(tx *chimera.Txn) error {
			return tx.Modify(contended, "n", types.Int(2))
		})
		switch {
		case err == nil:
			committed = true
		case errors.Is(err, chimera.ErrConflict):
			// Still latched by the killer; retry.
		default:
			t.Fatalf("peer hit a non-conflict error: %v", err)
		}
	}
	if err := <-killerDone; !errors.Is(err, chimera.ErrGasExhausted) {
		t.Fatalf("killer session: want ErrGasExhausted, got %v", err)
	}
	if db.ActiveLines() != 0 {
		t.Fatal("lines leaked")
	}
	if got := db.Stats().GasKills; got != 1 {
		t.Fatalf("GasKills = %d, want 1", got)
	}
}

// TestTorture_Concurrency_ParallelKills floods from every session slot
// at once: each line must die of its own typed budget fault (or lose a
// latch race), every rollback must be clean, and the engine must come
// out reusable with no lines leaked.
func TestTorture_Concurrency_ParallelKills(t *testing.T) {
	const sessions = 4
	opts := adversarialOpts(400)
	opts.MaxSessions = sessions
	opts.LockWait = 20 * time.Millisecond
	db := chimera.OpenWith(opts)
	// One class per session so the floods contend only inside the
	// engine (shared plan DAG, commit latch), not on class extensions.
	if err := chimera.Load(db, adversarialProgram(29, 2*sessions, 14, sessions)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func(s int) {
			done <- db.Run(func(tx *chimera.Txn) error {
				for i := 0; i < 256; i++ {
					for j := 0; j < 16; j++ {
						if _, err := tx.Create(className(s),
							map[string]types.Value{"n": types.Int(int64(j))}); err != nil {
							return err
						}
					}
					if err := tx.EndLine(); err != nil {
						return err
					}
				}
				return errors.New("flood never killed")
			})
		}(s)
	}
	kills := 0
	for s := 0; s < sessions; s++ {
		err := <-done
		switch {
		case errors.Is(err, chimera.ErrGasExhausted):
			kills++
		case errors.Is(err, chimera.ErrConflict):
			// A latch race losing to a sibling flood is a legal outcome.
		default:
			t.Fatalf("session ended with unexpected error: %v", err)
		}
	}
	if kills == 0 {
		t.Fatal("no session was budget-killed")
	}
	if db.ActiveLines() != 0 {
		t.Fatal("lines leaked")
	}
	// Reusable afterwards.
	if err := db.Run(func(tx *chimera.Txn) error {
		_, err := tx.Create(className(0), map[string]types.Value{"n": types.Int(1)})
		return err
	}); err != nil && !errors.Is(err, chimera.ErrGasExhausted) {
		t.Fatalf("engine unusable after parallel kills: %v", err)
	}
}
