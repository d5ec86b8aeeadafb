package engine

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// multiDB is stockDB with n concurrent transaction lines admitted.
func multiDB(t *testing.T, n int) *DB {
	t.Helper()
	opts := DefaultOptions()
	opts.MaxSessions = n
	opts.LockWait = 5 * time.Second
	db := New(opts)
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
		schema.Attribute{Name: "minquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestErrTxnOpenSingleSession(t *testing.T) {
	db := stockDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("second Begin = %v, want ErrTxnOpen", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatalf("Begin after rollback: %v", err)
	}
	tx2.Rollback()
}

func TestErrTxnOpenAtSessionLimit(t *testing.T) {
	db := multiDB(t, 2)
	a, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Begin()
	if err != nil {
		t.Fatalf("second line within limit: %v", err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("Begin over limit = %v, want ErrTxnOpen", err)
	}
	if db.ActiveLines() != 2 {
		t.Errorf("ActiveLines = %d, want 2", db.ActiveLines())
	}
	a.Rollback()
	c, err := db.Begin()
	if err != nil {
		t.Fatalf("Begin after a slot freed: %v", err)
	}
	c.Rollback()
	b.Rollback()
	if db.ActiveLines() != 0 {
		t.Errorf("ActiveLines = %d after all closed, want 0", db.ActiveLines())
	}
}

func TestRunPanicRollsBack(t *testing.T) {
	db := stockDB(t)
	var oid types.OID
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Run")
			}
		}()
		db.Run(func(tx *Txn) error {
			var err error
			oid, err = tx.Create("stock", map[string]types.Value{"quantity": types.Int(5)})
			if err != nil {
				return err
			}
			panic("boom")
		})
	}()
	if _, ok := db.Store().Get(oid); ok {
		t.Error("creation survived a panic inside Run")
	}
	// The transaction slot must be free again.
	if err := db.Run(func(tx *Txn) error {
		_, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
		return err
	}); err != nil {
		t.Fatalf("Run after panic: %v", err)
	}
}

func TestDefineRuleBlockedWhileLinesOpen(t *testing.T) {
	db := multiDB(t, 2)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	def := rules.Def{Name: "r", Target: "stock",
		Event: calculus.P(event.Create("stock")), Coupling: rules.Immediate}
	if err := db.DefineRule(def, Body{}); err == nil {
		t.Error("DefineRule accepted while a line is open")
	}
	if err := db.DropRule("nope"); err == nil {
		t.Error("DropRule accepted while a line is open")
	}
	tx.Rollback()
	if err := db.DefineRule(def, Body{}); err != nil {
		t.Errorf("DefineRule after lines closed: %v", err)
	}
}

func TestMultiSessionConflictAndRetry(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSessions = 2
	opts.LockWait = -1 // try-latch: conflicts fail immediately
	db := New(opts)
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	var oid types.OID
	if err := db.Run(func(tx *Txn) error {
		var err error
		oid, err = tx.Create("stock", map[string]types.Value{"quantity": types.Int(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	a, _ := db.Begin()
	b, _ := db.Begin()
	if err := a.Modify(oid, "quantity", types.Int(1)); err != nil {
		t.Fatal(err)
	}
	err := b.Modify(oid, "quantity", types.Int(2))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting modify = %v, want ErrConflict", err)
	}
	b.Rollback()
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Conflicts; got == 0 {
		t.Error("Stats.Conflicts did not count the conflict")
	}
	// Retry of the loser now succeeds.
	if err := db.Run(func(tx *Txn) error {
		return tx.Modify(oid, "quantity", types.Int(2))
	}); err != nil {
		t.Fatal(err)
	}
	o, _ := db.Store().Get(oid)
	if o.MustGet("quantity").AsInt() != 2 {
		t.Errorf("quantity = %d, want 2", o.MustGet("quantity").AsInt())
	}
}

// TestMultiSessionParallelTriggering runs concurrent lines on disjoint
// partitions — each line creates its own class's objects and its rule
// fires over them — and checks every line's rule work landed. Exercised
// by the CI -race job.
func TestMultiSessionParallelTriggering(t *testing.T) {
	const lines = 4
	opts := DefaultOptions()
	opts.MaxSessions = lines
	opts.LockWait = 5 * time.Second
	db := New(opts)
	for i := 0; i < lines; i++ {
		class := fmt.Sprintf("stock%d", i)
		if err := db.DefineClass(class,
			schema.Attribute{Name: "quantity", Kind: types.KindInt},
			schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
		); err != nil {
			t.Fatal(err)
		}
		err := db.DefineRule(
			rules.Def{
				Name:     "cap" + class,
				Target:   class,
				Event:    calculus.P(event.Create(class)),
				Coupling: rules.Immediate,
			},
			Body{
				Condition: cond.Formula{Atoms: []cond.Atom{
					cond.Class{Class: class, Var: "S"},
					cond.Occurred{Event: calculus.P(event.Create(class)), Var: "S"},
					cond.Compare{
						L:  cond.Attr{Var: "S", Attr: "quantity"},
						Op: cond.CmpGt,
						R:  cond.Attr{Var: "S", Attr: "maxquantity"},
					},
				}},
				Action: act.Action{Statements: []act.Statement{
					act.Modify{Class: class, Attr: "quantity", Var: "S",
						Value: cond.Attr{Var: "S", Attr: "maxquantity"}},
				}},
			})
		if err != nil {
			t.Fatal(err)
		}
	}

	const perLine = 10
	oids := make([][]types.OID, lines)
	var wg sync.WaitGroup
	for i := 0; i < lines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			class := fmt.Sprintf("stock%d", i)
			for j := 0; j < perLine; j++ {
				err := db.Run(func(tx *Txn) error {
					oid, err := tx.Create(class, map[string]types.Value{
						"quantity": types.Int(100), "maxquantity": types.Int(40),
					})
					if err != nil {
						return err
					}
					oids[i] = append(oids[i], oid)
					return nil
				})
				if err != nil {
					t.Errorf("line %d txn %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	for i := range oids {
		if len(oids[i]) != perLine {
			t.Fatalf("line %d committed %d objects, want %d", i, len(oids[i]), perLine)
		}
		for _, oid := range oids[i] {
			o, ok := db.Store().Get(oid)
			if !ok {
				t.Fatalf("object %v lost", oid)
			}
			if got := o.MustGet("quantity").AsInt(); got != 40 {
				t.Errorf("line %d object %v quantity = %d, want 40 (rule capped)", i, oid, got)
			}
		}
	}
	if got := db.Stats().RuleExecutions; got != lines*perLine {
		t.Errorf("RuleExecutions = %d, want %d", got, lines*perLine)
	}
	if db.ActiveLines() != 0 {
		t.Errorf("ActiveLines = %d at quiescence", db.ActiveLines())
	}
}

// TestMultiSessionStressContended has every line increment one shared
// counter through full engine transactions with conflict-retry; the
// final value must be exact. Exercised by the CI -race job.
func TestMultiSessionStressContended(t *testing.T) {
	const lines, rounds = 4, 20
	opts := DefaultOptions()
	opts.MaxSessions = lines
	opts.LockWait = 20 * time.Millisecond
	db := New(opts)
	if err := db.DefineClass("counter",
		schema.Attribute{Name: "n", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	var oid types.OID
	if err := db.Run(func(tx *Txn) error {
		var err error
		oid, err = tx.Create("counter", map[string]types.Value{"n": types.Int(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < lines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for {
					err := db.Run(func(tx *Txn) error {
						o, ok := tx.Get(oid)
						if !ok {
							return errors.New("counter unreadable (conflict)")
						}
						return tx.Modify(oid, "n", types.Int(o.MustGet("n").AsInt()+1))
					})
					if err == nil {
						break
					}
					if errors.Is(err, ErrTxnOpen) {
						time.Sleep(time.Millisecond) // all slots busy; retry
					} else {
						// Read→upgrade conflict: jittered backoff so the
						// lines don't retry in lockstep.
						time.Sleep(time.Duration(rand.IntN(400)+50) * time.Microsecond)
					}
				}
			}
		}()
	}
	wg.Wait()
	o, _ := db.Store().Get(oid)
	if got := o.MustGet("n").AsInt(); got != lines*rounds {
		t.Errorf("counter = %d, want %d", got, lines*rounds)
	}
}

// TestMultiMatchesSingleSequentially runs the same transaction sequence
// through a single-session database and through a multi-session one used
// sequentially (one line at a time): results must agree — the
// multi-session machinery adds no observable behavior at concurrency 1.
func TestMultiMatchesSingleSequentially(t *testing.T) {
	run := func(db *DB) []int64 {
		t.Helper()
		defineCheckStockQty(t, db)
		var quantities []int64
		var oids []types.OID
		for i := 0; i < 5; i++ {
			err := db.Run(func(tx *Txn) error {
				oid, err := tx.Create("stock", map[string]types.Value{
					"quantity":    types.Int(int64(30 + 20*i)),
					"maxquantity": types.Int(50),
				})
				oids = append(oids, oid)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, oid := range oids {
			o, _ := db.Store().Get(oid)
			quantities = append(quantities, o.MustGet("quantity").AsInt())
		}
		st := db.Stats()
		quantities = append(quantities, st.RuleExecutions, st.Events, st.Blocks)
		ts := db.Support().Stats()
		quantities = append(quantities, ts.Triggerings)
		return quantities
	}
	single := run(stockDB(t))
	multi := run(multiDB(t, 4))
	if len(single) != len(multi) {
		t.Fatalf("result lengths differ: %d vs %d", len(single), len(multi))
	}
	for i := range single {
		if single[i] != multi[i] {
			t.Errorf("result[%d]: single %d, multi %d", i, single[i], multi[i])
		}
	}
}

// A condition of the shape class(S), occurred(E, S) reads only the
// objects its own window affected, each under its object latch, and takes
// no class latch: a concurrent line inserting into the class is no
// conflict, whichever of the two reaches the class first, and the two
// commit to the state either serial order gives. (With the class walked,
// the try-latch below fails: the inserter holds the class exclusively.)
func TestConsiderationDoesNotLatchTheClass(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSessions = 2
	opts.LockWait = -1 // try-latch: a conflict is an immediate error
	db := New(opts)
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	modified := calculus.P(event.Modify("stock", "quantity"))
	if err := db.DefineRule(
		rules.Def{Name: "cap", Target: "stock", Event: modified, Coupling: rules.Immediate},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "stock", Var: "S"},
				cond.Occurred{Event: modified, Var: "S"},
				cond.Compare{L: cond.Attr{Var: "S", Attr: "quantity"}, Op: cond.CmpGt, R: cond.Attr{Var: "S", Attr: "maxquantity"}},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "stock", Attr: "quantity", Var: "S", Value: cond.Attr{Var: "S", Attr: "maxquantity"}},
			}},
		}); err != nil {
		t.Fatal(err)
	}
	var held types.OID
	if err := db.Run(func(tx *Txn) (err error) {
		held, err = tx.Create("stock", map[string]types.Value{"quantity": types.Int(1), "maxquantity": types.Int(40)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	for _, inserterFirst := range []bool{true, false} {
		conflicts := db.Stats().Conflicts
		inserter, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		writer, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		insert := func() types.OID {
			oid, err := inserter.Create("stock", map[string]types.Value{"quantity": types.Int(7), "maxquantity": types.Int(40)})
			if err != nil {
				t.Fatalf("inserter first %v: create beside the consideration: %v", inserterFirst, err)
			}
			return oid
		}
		consider := func() {
			if err := writer.Modify(held, "quantity", types.Int(100)); err != nil {
				t.Fatal(err)
			}
			if err := writer.EndLine(); err != nil { // considers and executes cap
				t.Fatalf("inserter first %v: consideration beside the insert: %v", inserterFirst, err)
			}
		}
		var fresh types.OID
		if inserterFirst {
			fresh = insert()
			consider()
		} else {
			consider()
			fresh = insert()
		}
		// The considered object stays pinned to the end of the writer's line.
		if err := inserter.Modify(held, "quantity", types.Int(0)); !errors.Is(err, ErrConflict) {
			t.Fatalf("modify of the considered object = %v, want ErrConflict", err)
		}
		if err := writer.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := inserter.Commit(); err != nil {
			t.Fatal(err)
		}
		if o, _ := db.Store().Get(held); o.MustGet("quantity").AsInt() != 40 {
			t.Fatalf("held quantity = %s, want the cap 40", o.MustGet("quantity"))
		}
		if o, ok := db.Store().Get(fresh); !ok || o.MustGet("quantity").AsInt() != 7 {
			t.Fatalf("inserted stock missing or capped: %v", o)
		}
		if n := db.Stats().Conflicts - conflicts; n != 1 {
			t.Fatalf("conflicts = %d, want only the deliberate one", n)
		}
	}
}

// Rule DDL and Begin exclude each other: DefineRule and DropRule check for
// open lines and write the rule registry — the bodies and the condition
// plan — in one critical section, so a line that begins meanwhile never
// reads them half-written. Lines run Begin → Modify → Commit, considering
// a resident rule and, while it is defined, a churned one, beside a loop
// that defines and drops the churned rule whenever no line is open. Run
// it under -race (make race-stress).
func TestRuleDDLRacesBegin(t *testing.T) {
	db := multiDB(t, 2)
	modified := calculus.P(event.Modify("stock", "quantity"))
	def := func(name string) rules.Def {
		return rules.Def{Name: name, Target: "stock", Event: modified, Coupling: rules.Immediate}
	}
	body := Body{Condition: cond.Formula{Atoms: []cond.Atom{
		cond.Occurred{Event: modified, Var: "S"},
		cond.At{Event: modified, Var: "S", TimeVar: "T"},
	}}}
	if err := db.DefineRule(def("resident"), body); err != nil {
		t.Fatal(err)
	}
	var oids []types.OID
	if err := db.Run(func(tx *Txn) error {
		for i := 0; i < 2; i++ {
			oid, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(0)})
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, oid := range oids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Modify(oid, "quantity", types.Int(int64(i))); err != nil {
					t.Error(err)
					tx.Rollback()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					time.Sleep(10 * time.Microsecond) // leave the DDL loop an idle moment
				}
			}
		}()
	}
	cycles := 0
	for deadline := time.Now().Add(time.Second); cycles < 200 && time.Now().Before(deadline); {
		if db.DefineRule(def("churn"), body) != nil {
			continue // a line is open
		}
		for db.DropRule("churn") != nil {
		}
		cycles++
	}
	close(stop)
	wg.Wait()
	if cycles == 0 {
		t.Fatal("no define/drop cycle found the lines idle")
	}
	t.Logf("%d define/drop cycles beside the lines", cycles)
}

// Every line is a recycled Trigger Support session, whatever the mode: a
// warm multi-session Begin+Commit of an empty transaction allocates no
// more than a single-session one.
func TestEmptyTxnAllocsSameInBothModes(t *testing.T) {
	allocs := func(db *DB) float64 {
		defineCheckStockQty(t, db)
		run := func() {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(100, run)
	}
	single, multi := allocs(stockDB(t)), allocs(multiDB(t, 4))
	if multi > single {
		t.Errorf("an empty transaction allocates %v times on a multi-session database, %v on a single-session one", multi, single)
	}
}
