package torture

import (
	"errors"
	"testing"

	"chimera"
	"chimera/internal/types"
)

// FuzzAdversarialRules feeds arbitrary programs into a tightly budgeted
// engine and drives a workload against whatever loads. The invariants:
// no panic, no race, resource exhaustion surfaces only as the typed
// budget errors, every failed transaction rolls back, and the engine
// stays usable afterwards. Hostile programs are free to fail to parse
// or load — silently succeeding would be the bug.
func FuzzAdversarialRules(f *testing.F) {
	f.Add(adversarialProgram(1, 4, 8, 3), uint16(100))
	f.Add(adversarialProgram(2, 8, 24, 3), uint16(30))
	f.Add(precChainProgram(3, 12, 2), uint16(50))
	f.Add(classSrc(2)+"define r priority 1\nevents create(c0) < delete(c1)\nend\n", uint16(5))
	f.Add(garbageSrc(7, 512), uint16(10))
	f.Fuzz(func(t *testing.T, src string, gas uint16) {
		opts := chimera.DefaultOptions()
		opts.GasLimit = int64(gas%1024) + 1
		opts.MaxEvents = 256
		opts.MaxRuleExecutions = 64
		db := chimera.OpenWith(opts)
		if err := chimera.Load(db, src); err != nil {
			return // hostile input may be rejected at the front door
		}
		classes := db.Schema().Names()
		if len(classes) > 8 {
			classes = classes[:8]
		}
		budgetErr := func(err error) bool {
			return errors.Is(err, chimera.ErrGasExhausted) ||
				errors.Is(err, chimera.ErrDeadlineExceeded) ||
				errors.Is(err, chimera.ErrEventLimit) ||
				errors.Is(err, chimera.ErrRuleLimit)
		}
		err := db.Run(func(tx *chimera.Txn) error {
			for round := 0; round < 4; round++ {
				for _, class := range classes {
					if _, err := tx.Create(class, map[string]types.Value{
						"n": types.Int(int64(round))}); err != nil {
						return err
					}
				}
				if err := tx.EndLine(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil && !budgetErr(err) {
			// Schema-shaped failures (attribute mismatches in fuzz-parsed
			// classes) are legal; what must never happen is an untyped
			// budget kill, so exhaustion counted in Stats must match a
			// typed error.
			st := db.Stats()
			if st.GasKills+st.DeadlineKills+st.EventLimitHits+st.RuleLimitHits > 0 {
				t.Fatalf("budget kill surfaced as an untyped error: %v", err)
			}
		}
		if db.ActiveLines() != 0 {
			t.Fatalf("line leaked after fuzz transaction (err=%v)", err)
		}
		// The engine must survive whatever just happened.
		if err := db.Run(func(tx *chimera.Txn) error { return nil }); err != nil {
			t.Fatalf("engine unusable after fuzz transaction: %v", err)
		}
	})
}
