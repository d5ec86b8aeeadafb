package torture

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"chimera"
	"chimera/internal/types"
)

// driveMarked runs a deterministic workload against a single-session
// database and returns the trace of per-rule marks after every block —
// the observable triggering behavior the differential compares. Each
// block creates perBlock objects over the classes, and every odd block
// also modifies the objects of one class created in the block before, a
// different class each time, so the rules over that class trigger, and
// are considered, in blocks of their own.
func driveMarked(t *testing.T, db *chimera.DB, blocks, perBlock, classes int) []string {
	t.Helper()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	var prev []types.OID
	for b := 0; b < blocks; b++ {
		var created []types.OID
		for i := 0; i < perBlock; i++ {
			oid, err := tx.Create(ClassName((b*perBlock+i)%classes),
				map[string]types.Value{"n": types.Int(int64(i))})
			if err != nil {
				t.Fatal(err)
			}
			created = append(created, oid)
		}
		if b%2 == 1 {
			for i, oid := range prev {
				if ((b-1)*perBlock+i)%classes == (b/2)%classes {
					if err := tx.Modify(oid, "n", types.Int(int64(b))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		prev = created
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
		trace = append(trace, marksFingerprint(t, tx))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// sharedLiftProgram renders, for each of k classes, immediate rules that
// driveMarked's creates and modifies trigger: two instance conjunctions
// over one leaf set, create(cK) += modify(cK.n) and its commuted form,
// which read one fold at an instant whatever their horizons; the
// instance disjunction over the same set; and, beside them, the shapes
// of the other programs — a set conjunction and a precedence chain. A
// deferred rule over the same leaf set stays triggered until the commit,
// so the trace shows its triggered mark.
func sharedLiftProgram(k int) string {
	var b strings.Builder
	b.WriteString(ClassSrc(k))
	shapes := []string{
		"create(%[1]s) += modify(%[1]s.n)",
		"modify(%[1]s.n) += create(%[1]s)",
		"create(%[1]s) ,= modify(%[1]s.n)",
		"(create(%[1]s) + modify(%[1]s.n))",
		"create(%[1]s) < modify(%[1]s.n)",
	}
	for i := 0; i < k; i++ {
		for j, shape := range shapes {
			fmt.Fprintf(&b, "define s%d_%d priority %d\nevents %s\nend\n",
				i, j, i*len(shapes)+j+1, fmt.Sprintf(shape, ClassName(i)))
		}
		fmt.Fprintf(&b, "define deferred d%d\nevents modify(%[2]s.n) += create(%[2]s)\nend\n", i, ClassName(i))
	}
	return b.String()
}

// TestTorture_Differential_DegradationModes drives identical
// adversarial rule sets and workloads through the evaluator unbounded
// and with a generous (never-tripping) budget. Both must produce an
// identical block-by-block triggering trace: budget instrumentation may
// change how much work evaluation does, never what the rules observe.
// The shared-lift program's trace must not be vacuous: it holds a
// triggered mark and rules considered at different instants, so lifts
// over one leaf set are probed at different horizons.
func TestTorture_Differential_DegradationModes(t *testing.T) {
	programs := map[string]string{
		"deep-nest":   AdversarialProgram(41, 6, 18, 3),
		"prec-chain":  PrecChainProgram(6, 20, 3),
		"shared-lift": sharedLiftProgram(3),
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
			if pname == "shared-lift" {
				triggered, horizons := traceCoverage(want)
				if triggered == 0 || len(horizons) < 2 {
					t.Fatalf("vacuous trace: %d triggered marks, %d distinct last considerations %v", triggered, len(horizons), horizons)
				}
			}
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

// traceCoverage counts the triggered marks of a marks trace and collects
// its distinct LastConsideration values.
func traceCoverage(trace []string) (triggered int, horizons map[string]bool) {
	horizons = make(map[string]bool)
	for _, block := range trace {
		for _, line := range strings.Split(strings.TrimSpace(block), "\n") {
			for _, field := range strings.Fields(line) {
				if field == "trig=true" {
					triggered++
				}
				if lc, ok := strings.CutPrefix(field, "lc="); ok {
					horizons[lc] = true
				}
			}
		}
	}
	return triggered, horizons
}
