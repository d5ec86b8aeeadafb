package engine_test

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/storage"
	"chimera/internal/types"
)

// stockCatalog defines the stock class on db.
func stockCatalog(t *testing.T, db *engine.DB) {
	t.Helper()
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
}

var modifiedQty = calculus.P(event.Modify("stock", "quantity"))

// eventCondition is a condition with an occurred() and an at() atom.
func eventCondition(e calculus.Expr) cond.Formula {
	return cond.Formula{Atoms: []cond.Atom{
		cond.Occurred{Event: e, Var: "S"},
		cond.At{Event: calculus.PrecI(calculus.P(event.Create("stock")), e), Var: "S", TimeVar: "T"},
		cond.Compare{L: cond.Attr{Var: "S", Attr: "quantity"}, Op: cond.CmpGt, R: cond.Attr{Var: "S", Attr: "maxquantity"}},
	}}
}

// A condition is validated when its rule is defined: an invalid event
// formula fails DefineRule with calculus.Valid's error, and leaves the
// Trigger Support's rules, the rule bodies, both plans and the WAL as
// they were.
func TestInvalidConditionFailsDefineRule(t *testing.T) {
	store := storage.NewMemStore()
	db, err := engine.Open(durOptions(store, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stockCatalog(t, db)
	ok := rules.Def{Name: "ok", Target: "stock", Event: modifiedQty, Coupling: rules.Immediate}
	if err := db.DefineRule(ok, engine.Body{Condition: eventCondition(modifiedQty)}); err != nil {
		t.Fatal(err)
	}
	// Under FsyncOff records reach the store on the WAL writer's drain
	// tick: sync before each snapshot so both see every record enqueued.
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	wal, _ := store.WAL()
	triggerNodes, condNodes := db.Support().Plan().Live(), db.CondPlan().Live()

	// An instance -= over a set-oriented operand.
	invalid := calculus.NegI(calculus.Conj(calculus.P(event.Create("stock")), modifiedQty))
	bad := rules.Def{Name: "bad", Target: "stock", Event: modifiedQty, Coupling: rules.Immediate}
	err = db.DefineRule(bad, engine.Body{Condition: eventCondition(invalid)})
	if err == nil || !strings.Contains(err.Error(), calculus.Valid(invalid).Error()) {
		t.Fatalf("DefineRule with occurred(%s) = %v, want %v", invalid, err, calculus.Valid(invalid))
	}
	if got := db.Support().Rules(); !slices.Equal(got, []string{"ok"}) {
		t.Errorf("Support rules = %v, want [ok]", got)
	}
	if body := db.RuleBody("bad"); len(body.Condition.Atoms) != 0 {
		t.Errorf("the rejected rule has a body: %s", body.Condition)
	}
	if got := db.Support().Plan().Live(); got != triggerNodes {
		t.Errorf("trigger plan holds %d nodes, want %d", got, triggerNodes)
	}
	if got := db.CondPlan().Live(); got != condNodes {
		t.Errorf("condition plan holds %d nodes, want %d", got, condNodes)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if after, _ := store.WAL(); !bytes.Equal(after, wal) {
		t.Errorf("the rejected rule reached the WAL: %d bytes, were %d", len(after), len(wal))
	}
}

// Defining and dropping a rule gives back every node its condition took:
// a thousand cycles of a rule with an occurred() and an at() leave the
// condition plan empty.
func TestDefineDropReleasesConditionPlan(t *testing.T) {
	db := engine.New(engine.DefaultOptions())
	stockCatalog(t, db)
	def := rules.Def{Name: "cap", Target: "stock", Event: modifiedQty, Coupling: rules.Immediate}
	for i := 0; i < 1000; i++ {
		if err := db.DefineRule(def, engine.Body{Condition: eventCondition(modifiedQty)}); err != nil {
			t.Fatal(err)
		}
		if i == 0 && db.CondPlan().Live() == 0 {
			t.Fatal("the condition interned nothing")
		}
		if err := db.DropRule("cap"); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.CondPlan().Live(); n != 0 {
		t.Fatalf("after 1000 define/drop cycles the condition plan holds %d nodes", n)
	}
}

// A line takes its condition context from the database's idle ones and
// gives it back: one context serves every transaction of a single
// session, and concurrent lines never hold more than the lines open.
func TestConditionContextPerLine(t *testing.T) {
	for _, sessions := range []int{1, 3} {
		opts := engine.DefaultOptions()
		opts.MaxSessions = sessions
		db := engine.New(opts)
		stockCatalog(t, db)
		def := rules.Def{Name: "cap", Target: "stock", Event: modifiedQty, Coupling: rules.Immediate}
		if err := db.DefineRule(def, engine.Body{Condition: eventCondition(modifiedQty)}); err != nil {
			t.Fatal(err)
		}
		var oids []types.OID
		if err := db.Run(func(tx *engine.Txn) error {
			for i := 0; i < sessions; i++ {
				oid, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1), "maxquantity": types.Int(9)})
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, oid := range oids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := db.Run(func(tx *engine.Txn) error {
						return tx.Modify(oid, "quantity", types.Int(int64(i%9)))
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if n := db.IdleContexts(); n < 1 || n > sessions {
			t.Fatalf("MaxSessions %d: %d idle condition contexts, want 1 to %d", sessions, n, sessions)
		}
	}
}

// A condition's event formulas cost a transaction no allocation: they
// were interned when the rule was defined, and the line's condition
// context keeps its evaluator and scratch across transactions. A
// transaction that considers a rule whose occurred() and at() atoms find
// no row allocates as much as one whose condition is false outright.
func TestEventConditionAllocatesNothingPerTransaction(t *testing.T) {
	allocs := func(condition cond.Formula) float64 {
		db := engine.New(engine.DefaultOptions())
		stockCatalog(t, db)
		def := rules.Def{Name: "cap", Target: "stock", Event: modifiedQty, Coupling: rules.Immediate}
		if err := db.DefineRule(def, engine.Body{Condition: condition}); err != nil {
			t.Fatal(err)
		}
		var oids []types.OID
		if err := db.Run(func(tx *engine.Txn) error {
			for i := 0; i < 8; i++ {
				oid, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1), "maxquantity": types.Int(9)})
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		txn := func() {
			if err := db.Run(func(tx *engine.Txn) error {
				for _, oid := range oids[:5] {
					if err := tx.Modify(oid, "quantity", types.Int(2)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			txn() // grow every buffer
		}
		return testing.AllocsPerRun(100, txn)
	}
	never := cond.Formula{Atoms: []cond.Atom{
		cond.Compare{L: cond.Const{V: types.Int(1)}, Op: cond.CmpGt, R: cond.Const{V: types.Int(2)}},
	}}
	events, baseline := allocs(eventCondition(modifiedQty)), allocs(never)
	t.Logf("allocs per transaction: %v with occurred() and at(), %v with a false condition", events, baseline)
	if events != baseline {
		t.Fatalf("the event formulas cost %v allocations per transaction, want 0", events-baseline)
	}
}
