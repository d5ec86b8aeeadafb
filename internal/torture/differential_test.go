package torture

import (
	"errors"
	"testing"

	"chimera"
	"chimera/internal/types"
)

// driveMarked runs a deterministic workload against a single-session
// database and returns the trace of per-rule marks after every block —
// the observable triggering behavior the differential compares.
func driveMarked(t *testing.T, db *chimera.DB, blocks, perBlock, classes int) []string {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	for b := 0; b < blocks; b++ {
		for i := 0; i < perBlock; i++ {
			if _, err := tx.Create(ClassName((b*perBlock+i)%classes),
				map[string]types.Value{"n": types.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
		trace = append(trace, marksFingerprint(db))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestTorture_Differential_DegradationModes drives identical
// adversarial rule sets and workloads through the evaluator unbounded
// and with a generous (never-tripping) budget. Both must produce an
// identical block-by-block triggering trace: budget instrumentation may
// change how much work evaluation does, never what the rules observe.
func TestTorture_Differential_DegradationModes(t *testing.T) {
	programs := map[string]string{
		"deep-nest":  AdversarialProgram(41, 6, 18, 3),
		"prec-chain": PrecChainProgram(6, 20, 3),
	}
	configs := map[string]chimera.Options{
		"optimized": chimera.DefaultOptions(),
		"budgeted":  adversarialOpts(100_000_000),
	}
	for pname, program := range programs {
		t.Run(pname, func(t *testing.T) {
			traces := make(map[string][]string)
			for cname, opts := range configs {
				db := loadDB(t, opts, program)
				traces[cname] = driveMarked(t, db, 12, 6, 3)
			}
			want := traces["optimized"]
			for cname, got := range traces {
				if len(got) != len(want) {
					t.Fatalf("%s: trace length %d, want %d", cname, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s diverged from optimized at block %d:\n%s\nwant:\n%s",
							cname, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestTorture_Differential_KillDeterminism kills the same adversarial
// transaction on two identically configured engines: both must die of
// the same typed error at the same block, and the rolled-back engines
// must agree on every observable afterwards.
func TestTorture_Differential_KillDeterminism(t *testing.T) {
	run := func() (killBlock int, err error, db *chimera.DB) {
		db = loadDB(t, adversarialOpts(1000), AdversarialProgram(5, 8, 20, 3))
		tx, berr := db.Begin()
		if berr != nil {
			t.Fatal(berr)
		}
		for b := 0; b < 256; b++ {
			if ferr := flood(tx, 8, 3); ferr != nil {
				t.Fatal(ferr)
			}
			if eerr := tx.EndLine(); eerr != nil {
				if rerr := tx.Rollback(); rerr != nil {
					t.Fatal(rerr)
				}
				return b, eerr, db
			}
		}
		t.Fatal("flood never killed")
		return 0, nil, nil
	}
	b1, e1, db1 := run()
	b2, e2, db2 := run()
	if b1 != b2 {
		t.Fatalf("kill block diverged: %d vs %d (gas accounting must be deterministic)", b1, b2)
	}
	if !errors.Is(e1, chimera.ErrGasExhausted) || !errors.Is(e2, chimera.ErrGasExhausted) {
		t.Fatalf("kills must be typed: %v / %v", e1, e2)
	}
	if objFingerprint(db1) != objFingerprint(db2) {
		t.Fatal("rolled-back engines diverged")
	}
}
