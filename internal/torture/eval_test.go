package torture

import (
	"errors"
	"testing"
	"time"

	"chimera"
	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// adversarialOpts is the standard budgeted configuration the eval
// tortures share: default engine, the given gas ceiling.
func adversarialOpts(gas int64) chimera.Options {
	opts := chimera.DefaultOptions()
	opts.GasLimit = gas
	return opts
}

// --- Eval: the budget mechanism itself --------------------------------

func TestTorture_Eval_BudgetGasBoundary(t *testing.T) {
	// Gas N admits exactly N charges; charge N+1 faults with the typed
	// error, and the budget stays latched for every later charge.
	const gas = 10
	b := calculus.NewBudget(gas, time.Time{})
	err := calculus.CatchBudget(func() {
		for i := 0; i < gas; i++ {
			b.Charge()
		}
	})
	if err != nil {
		t.Fatalf("charges within budget must not fault: %v", err)
	}
	err = calculus.CatchBudget(func() { b.Charge() })
	if !errors.Is(err, calculus.ErrGasExhausted) {
		t.Fatalf("want ErrGasExhausted, got %v", err)
	}
	if got := b.Err(); !errors.Is(got, calculus.ErrGasExhausted) {
		t.Fatalf("budget must latch its error, got %v", got)
	}
	// Latched: every subsequent charge faults immediately.
	for i := 0; i < 3; i++ {
		if err := calculus.CatchBudget(func() { b.Charge() }); !errors.Is(err, calculus.ErrGasExhausted) {
			t.Fatalf("latched budget charge %d: want ErrGasExhausted, got %v", i, err)
		}
	}
}

func TestTorture_Eval_BudgetDeadline(t *testing.T) {
	// An already-expired deadline fires within one probe stride of
	// charges, with unlimited gas.
	b := calculus.NewBudget(0, time.Now().Add(-time.Second))
	err := calculus.CatchBudget(func() {
		for i := 0; i < 256; i++ {
			b.Charge()
		}
	})
	if !errors.Is(err, calculus.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
}

func TestTorture_Eval_BudgetConcurrentWorkers(t *testing.T) {
	// Sibling workers hammering one budget: exactly one error wins the
	// latch and every faulting worker observes it typed.
	b := calculus.NewBudget(100, time.Time{})
	const workers = 8
	errs := make([]error, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs[w] = calculus.CatchBudget(func() {
				for i := 0; i < 1000; i++ {
					b.Charge()
				}
			})
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	faults := 0
	for _, err := range errs {
		if err != nil {
			if !errors.Is(err, calculus.ErrGasExhausted) {
				t.Fatalf("worker fault must be typed, got %v", err)
			}
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("8000 charges against gas 100 must fault at least one worker")
	}
}

// --- Eval: engine-level kills -----------------------------------------

func TestTorture_Eval_GasKill(t *testing.T) {
	db := loadDB(t, adversarialOpts(200), adversarialProgram(3, 8, 24, 3))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := flood(tx, 64, 3); err != nil {
		t.Fatal(err)
	}
	err = tx.EndLine()
	if !errors.Is(err, chimera.ErrGasExhausted) {
		t.Fatalf("want ErrGasExhausted from the flooded block, got %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback after kill: %v", err)
	}
	if got := db.Stats().GasKills; got != 1 {
		t.Fatalf("GasKills = %d, want 1", got)
	}
	if db.ActiveLines() != 0 {
		t.Fatalf("killed line still active")
	}
}

func TestTorture_Eval_DeadlineKill(t *testing.T) {
	opts := chimera.DefaultOptions()
	opts.TimeBudget = time.Nanosecond // expired before the first charge
	db := loadDB(t, opts, precChainProgram(6, 24, 3))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	for i := 0; i < 64 && !killed; i++ {
		if err := flood(tx, 8, 3); err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); err != nil {
			if !errors.Is(err, chimera.ErrDeadlineExceeded) {
				t.Fatalf("want ErrDeadlineExceeded, got %v", err)
			}
			killed = true
		}
	}
	if !killed {
		t.Fatal("a 1ns time budget never killed the flood")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().DeadlineKills; got < 1 {
		t.Fatalf("DeadlineKills = %d, want >= 1", got)
	}
}

func TestTorture_Eval_UnlimitedUnaffected(t *testing.T) {
	// GasLimit 0 is unlimited: the same adversarial load that kills a
	// budgeted engine runs to completion.
	db := loadDB(t, chimera.DefaultOptions(), adversarialProgram(3, 8, 24, 3))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := flood(tx, 64, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatalf("unlimited engine must survive the flood: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.GasKills+st.DeadlineKills != 0 {
		t.Fatalf("unlimited engine recorded kills: %+v", st)
	}
}

// --- Error: typed capacity errors and counters ------------------------

func TestTorture_Error_MaxEvents(t *testing.T) {
	opts := chimera.DefaultOptions()
	opts.MaxEvents = 8
	opts.DisableCompaction = true
	db := loadDB(t, opts, classSrc(1))
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := flood(tx, 8, 1); err != nil {
		t.Fatalf("appends within MaxEvents must succeed: %v", err)
	}
	_, err = tx.Create(className(0), map[string]types.Value{"n": types.Int(9)})
	if !errors.Is(err, chimera.ErrEventLimit) {
		t.Fatalf("want ErrEventLimit on occurrence 9, got %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().EventLimitHits; got != 1 {
		t.Fatalf("EventLimitHits = %d, want 1", got)
	}
}

func TestTorture_Error_RuleLimit(t *testing.T) {
	// A self-triggering rule (create begets create) must stop at
	// MaxRuleExecutions with the typed error and count the hit.
	opts := chimera.DefaultOptions()
	opts.MaxRuleExecutions = 16
	db := chimera.OpenWith(opts)
	if err := chimera.Load(db, classSrc(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRule(
		rules.Def{Name: "loop", Event: calculus.P(event.Create(className(0)))},
		engine.Body{Action: act.Action{Statements: []act.Statement{
			act.Create{Class: className(0), Once: true, Vals: map[string]cond.Term{
				"n": cond.Const{V: types.Int(1)}}},
		}}}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Create(className(0), map[string]types.Value{"n": types.Int(0)}); err != nil {
		t.Fatal(err)
	}
	err = tx.EndLine()
	if !errors.Is(err, chimera.ErrRuleLimit) {
		t.Fatalf("want ErrRuleLimit from the cascade, got %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().RuleLimitHits; got != 1 {
		t.Fatalf("RuleLimitHits = %d, want 1", got)
	}
}

func TestTorture_Error_LimitsReport(t *testing.T) {
	opts := chimera.DefaultOptions()
	opts.GasLimit = 123
	opts.TimeBudget = 7 * time.Second
	opts.MaxEvents = 456
	db := chimera.OpenWith(opts)
	lim := db.Limits()
	if lim.GasLimit != 123 || lim.TimeBudget != 7*time.Second ||
		lim.MaxEvents != 456 || lim.MaxRuleExecutions != 10000 {
		t.Fatalf("Limits() does not reflect the configuration: %+v", lim)
	}
}

func TestTorture_Error_OptionsValidate(t *testing.T) {
	for _, mut := range []func(*chimera.Options){
		func(o *chimera.Options) { o.GasLimit = -1 },
		func(o *chimera.Options) { o.TimeBudget = -time.Second },
		func(o *chimera.Options) { o.MaxEvents = -1 },
	} {
		opts := chimera.DefaultOptions()
		mut(&opts)
		if err := opts.Validate(); err == nil {
			t.Fatalf("negative limit must fail validation: %+v", opts)
		}
	}
}

// --- Lifecycle: kill, roll back, reuse --------------------------------

func TestTorture_Lifecycle_KillRollbackDifferential(t *testing.T) {
	// The acceptance differential: an engine that survived a budget kill
	// and rolled back must afterwards behave exactly like one that never
	// saw the adversarial transaction — same objects, same marks — with
	// the shared plan DAG still serving triggering for the benign load.
	const program = `
class hot (n: integer)
class note (n: integer)
define chain priority 1
events create(hot) < modify(hot.n)
condition hot(S), occurred(create(hot) <= modify(hot.n), S)
action modify(hot.n, S, 0)
end
`
	opts := adversarialOpts(3000)
	killedDB := loadDB(t, opts, program+adversarialProgram(5, 10, 20, 3))
	refDB := loadDB(t, opts, program+adversarialProgram(5, 10, 20, 3))

	// Adversarial transaction on killedDB only: flood until the gas
	// budget kills it, then roll back.
	tx, err := killedDB.Begin()
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	for i := 0; i < 64 && !killed; i++ {
		if err := flood(tx, 16, 3); err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); err != nil {
			if !errors.Is(err, chimera.ErrGasExhausted) {
				t.Fatalf("want ErrGasExhausted, got %v", err)
			}
			killed = true
		}
	}
	if !killed {
		t.Fatal("adversarial flood never exhausted gas 3000")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Benign follow-up on both engines: triggers the chain rule within
	// budget and commits.
	benign := func(db *chimera.DB) {
		t.Helper()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		oid, err := tx.Create("hot", map[string]types.Value{"n": types.Int(5)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.EndLine(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Modify(oid, "n", types.Int(7)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	benign(killedDB)
	benign(refDB)

	if got, want := objFingerprint(killedDB), objFingerprint(refDB); got != want {
		t.Fatalf("post-kill state diverged from the never-killed reference:\nkilled:\n%s\nreference:\n%s", got, want)
	}
	if killedDB.Stats().GasKills != 1 {
		t.Fatalf("GasKills = %d, want 1", killedDB.Stats().GasKills)
	}
}

func TestTorture_Lifecycle_RunAutoRollback(t *testing.T) {
	// db.Run wraps the kill: the typed error surfaces, the deferred
	// rollback fires, and the engine stays reusable.
	db := loadDB(t, adversarialOpts(200), adversarialProgram(11, 8, 24, 3))
	err := db.Run(func(tx *chimera.Txn) error {
		for i := 0; i < 64; i++ {
			if err := flood(tx, 16, 3); err != nil {
				return err
			}
			if err := tx.EndLine(); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, chimera.ErrGasExhausted) {
		t.Fatalf("want ErrGasExhausted through Run, got %v", err)
	}
	if db.ActiveLines() != 0 {
		t.Fatal("Run left a line open after the kill")
	}
	// Reuse: an empty transaction still commits.
	if err := db.Run(func(tx *chimera.Txn) error { return nil }); err != nil {
		t.Fatalf("engine unusable after kill: %v", err)
	}
}

func TestTorture_Lifecycle_RepeatedKills(t *testing.T) {
	// Kill the same engine many times in a row; every kill must be
	// typed, every rollback clean, and the counters must add up.
	db := loadDB(t, adversarialOpts(150), adversarialProgram(17, 8, 24, 3))
	const rounds = 16
	for i := 0; i < rounds; i++ {
		err := db.Run(func(tx *chimera.Txn) error {
			for {
				if err := flood(tx, 16, 3); err != nil {
					return err
				}
				if err := tx.EndLine(); err != nil {
					return err
				}
			}
		})
		if !errors.Is(err, chimera.ErrGasExhausted) {
			t.Fatalf("round %d: want ErrGasExhausted, got %v", i, err)
		}
	}
	if got := db.Stats().GasKills; got != rounds {
		t.Fatalf("GasKills = %d, want %d", got, rounds)
	}
	if db.ActiveLines() != 0 {
		t.Fatal("lines leaked across repeated kills")
	}
}

func TestTorture_Lifecycle_TriggerStatsMatchMetrics(t *testing.T) {
	// Support.Stats and the registry's trigger counters are one count of
	// the same facts: they agree at every instant, with a transaction
	// open, after a check the budget cut short, and once every
	// transaction has ended.
	const gas = 50
	opts := durTortureOpts(storage.NewMemStore(), gas)
	opts.Metrics = chimera.NewMetricsRegistry()
	db, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := chimera.Load(db, "class plain (n: integer)\n"+
		"define onPlain events create(plain) end\n"+
		adversarialProgram(31, 4, 16, 3)); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		st, c := db.Support().Stats(), db.Snapshot().Counters
		for _, f := range []struct {
			name string
			got  int64
		}{
			{"chimera_trigger_checks_total", st.Checks},
			{"chimera_trigger_rules_examined_total", st.RulesExamined},
			{"chimera_trigger_rules_skipped_total", st.RulesSkipped},
			{"chimera_trigger_ts_evals_total", st.TsEvaluations},
			{"chimera_trigger_triggerings_total", st.Triggerings},
			{"chimera_plan_memo_hits_total", st.MemoHits},
			{"chimera_plan_memo_misses_total", st.MemoMisses},
		} {
			if f.got != c[f.name] {
				t.Errorf("%s: Support.Stats reads %d, %s reads %d", stage, f.got, f.name, c[f.name])
			}
		}
	}

	// (a) An open transaction whose first block triggers onPlain.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Create("plain", map[string]types.Value{"n": types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if db.Snapshot().Counters["chimera_trigger_triggerings_total"] == 0 {
		t.Fatal("(a): the block triggered no rule")
	}
	check("(a) open transaction")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// (b) A transaction killed by its gas budget in its first check.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := flood(tx, 200, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); !errors.Is(err, chimera.ErrGasExhausted) {
		t.Fatalf("(b): want ErrGasExhausted in the first block, got %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("(b) budget kill rolled back")

	// (c) Every transaction ended, the last one committed.
	if err := db.Run(func(tx *chimera.Txn) error {
		_, err := tx.Create("plain", map[string]types.Value{"n": types.Int(2)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("(c) every transaction ended")
}
