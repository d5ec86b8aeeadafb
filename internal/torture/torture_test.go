package torture

// The torture matrix. Categories:
//
//	TestTorture_Parse_*        parser-limit boundaries, hostile input
//	TestTorture_Eval_*         gas/deadline budgets, budget mechanism
//	TestTorture_Error_*        typed capacity errors and kill counters
//	TestTorture_Lifecycle_*    kill → rollback → reuse differentials
//	TestTorture_Differential_* optimized vs naive vs budgeted equivalence
//	TestTorture_Concurrency_*  killed sessions vs concurrent peers
//	TestTorture_Durability_*   crash-during-budget-kill recovery
//
// Every test is deterministic (seeded generators, no wall-clock
// dependence except the deadline kills, which use an already-expired
// budget) and race-clean; `make torture` runs the matrix under -race.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"chimera"
	"chimera/internal/lang"
	"chimera/internal/types"
)

// loadDB builds a database with the given options and program source.
func loadDB(t *testing.T, opts chimera.Options, src string) *chimera.DB {
	t.Helper()
	db := chimera.OpenWith(opts)
	if err := chimera.Load(db, src); err != nil {
		t.Fatalf("load: %v", err)
	}
	return db
}

// flood logs n creates spread over the first k generated classes.
func flood(tx *chimera.Txn, n, k int) error {
	for i := 0; i < n; i++ {
		if _, err := tx.Create(className(i%k), map[string]types.Value{
			"n": types.Int(int64(i))}); err != nil {
			return err
		}
	}
	return nil
}

// objFingerprint renders the committed object population, sorted — the
// clock-insensitive state fingerprint the differentials compare.
func objFingerprint(db *chimera.DB) string {
	var lines []string
	for _, class := range db.Schema().Names() {
		oids, _ := db.Store().Select(class)
		for _, oid := range oids {
			if o, ok := db.Store().Get(oid); ok && o.Class().Name() == class {
				lines = append(lines, o.String())
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// marksFingerprint renders the line's per-rule consideration/triggering
// marks.
func marksFingerprint(t *testing.T, tx *chimera.Txn) string {
	t.Helper()
	marks, err := tx.Marks()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, m := range marks {
		fmt.Fprintf(&b, "%s lc=%d trig=%v at=%d\n",
			m.Rule, m.LastConsideration, m.Triggered, m.TriggeredAt)
	}
	return b.String()
}

// --- Parse ------------------------------------------------------------

func TestTorture_Parse_NestingBoundary(t *testing.T) {
	nest := func(d int) string {
		return strings.Repeat("(", d) + "create(c0)" + strings.Repeat(")", d)
	}
	cases := []struct {
		name    string
		src     string
		overcap bool
	}{
		{"event at limit", nest(lang.MaxNestingDepth - 2), false},
		{"event over limit", nest(lang.MaxNestingDepth + 8), true},
		{"event far over limit", nest(4 * lang.MaxNestingDepth), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := lang.ParseExpr(tc.src, "")
			if tc.overcap {
				if !errors.Is(err, lang.ErrTooDeep) {
					t.Fatalf("want ErrTooDeep, got %v", err)
				}
			} else if err != nil {
				t.Fatalf("at-limit expression must parse: %v", err)
			}
		})
	}
}

func TestTorture_Parse_TermNestingBoundary(t *testing.T) {
	ruleWith := func(term string) string {
		return "define r for c0\nevents create\ncondition c0(S), S.n > " + term + "\nend"
	}
	deepParens := func(d int) string {
		return strings.Repeat("(", d) + "1" + strings.Repeat(")", d)
	}
	cases := []struct {
		name    string
		src     string
		overcap bool
	}{
		{"term at limit", ruleWith(deepParens(lang.MaxNestingDepth/2 - 4)), false},
		{"term over limit", ruleWith(deepParens(lang.MaxNestingDepth + 8)), true},
		{"unary chain over limit", ruleWith(strings.Repeat("- ", lang.MaxNestingDepth+8) + "1"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := lang.ParseRule(tc.src)
			if tc.overcap {
				if !errors.Is(err, lang.ErrTooDeep) {
					t.Fatalf("want ErrTooDeep, got %v", err)
				}
			} else if err != nil {
				t.Fatalf("at-limit term must parse: %v", err)
			}
		})
	}
}

func TestTorture_Parse_RuleCountBoundary(t *testing.T) {
	program := func(n int) string {
		var b strings.Builder
		b.WriteString(classSrc(1))
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "define r%d for c0 events create end\n", i)
		}
		return b.String()
	}
	if _, err := lang.ParseProgram(program(lang.MaxProgramRules)); err != nil {
		t.Fatalf("program at rule limit must parse: %v", err)
	}
	_, err := lang.ParseProgram(program(lang.MaxProgramRules + 1))
	if !errors.Is(err, lang.ErrTooManyRules) {
		t.Fatalf("want ErrTooManyRules, got %v", err)
	}
}

func TestTorture_Parse_IdentBoundary(t *testing.T) {
	atLimit := strings.Repeat("a", lang.MaxIdentLen)
	if _, err := lang.ParseExpr("create("+atLimit+")", ""); err != nil {
		t.Fatalf("identifier at limit must lex: %v", err)
	}
	_, err := lang.ParseExpr("create("+atLimit+"a)", "")
	if !errors.Is(err, lang.ErrIdentTooLong) {
		t.Fatalf("want ErrIdentTooLong, got %v", err)
	}
}

func TestTorture_Parse_GarbageNoPanic(t *testing.T) {
	// Hostile byte soups drawn from the language alphabet: the parser may
	// reject them (almost always will) but must never panic and must
	// never loop; each case either parses or returns an error promptly.
	for seed := int64(0); seed < 64; seed++ {
		src := garbageSrc(seed, 2048)
		if _, err := lang.ParseProgram(src); err == nil {
			// Fine: a lucky soup can be a valid (empty or tiny) program.
			continue
		}
	}
}

func TestTorture_Parse_GeneratedProgramsRoundTrip(t *testing.T) {
	// Every generator output must be valid input: parse, load, and
	// survive a definition round trip.
	for seed := int64(1); seed <= 8; seed++ {
		src := adversarialProgram(seed, 6, 20, 3)
		if _, err := lang.ParseProgram(src); err != nil {
			t.Fatalf("seed %d: generated program must parse: %v", seed, err)
		}
		db := chimera.OpenWith(chimera.DefaultOptions())
		if err := chimera.Load(db, src); err != nil {
			t.Fatalf("seed %d: generated program must load: %v", seed, err)
		}
	}
	if _, err := lang.ParseProgram(precChainProgram(8, 40, 2)); err != nil {
		t.Fatalf("precedence-chain program must parse: %v", err)
	}
}
