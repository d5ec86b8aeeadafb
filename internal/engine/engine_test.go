package engine

import (
	"errors"
	"testing"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

func stockDB(t *testing.T) *DB {
	t.Helper()
	db := New(DefaultOptions())
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
		schema.Attribute{Name: "minquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	if err := db.DefineClass("show",
		schema.Attribute{Name: "item", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkStockQty is the paper's Section 2 example rule:
//
//	define immediate checkStockQty for stock
//	events create
//	condition stock(S), occurred(create, S), S.quantity > S.maxquantity
//	action modify(stock.quantity, S, S.maxquantity)
func defineCheckStockQty(t *testing.T, db *DB) {
	t.Helper()
	err := db.DefineRule(
		rules.Def{
			Name:     "checkStockQty",
			Target:   "stock",
			Event:    calculus.P(event.Create("stock")),
			Coupling: rules.Immediate,
		},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "stock", Var: "S"},
				cond.Occurred{Event: calculus.P(event.Create("stock")), Var: "S"},
				cond.Compare{
					L:  cond.Attr{Var: "S", Attr: "quantity"},
					Op: cond.CmpGt,
					R:  cond.Attr{Var: "S", Attr: "maxquantity"},
				},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "stock", Attr: "quantity", Var: "S",
					Value: cond.Attr{Var: "S", Attr: "maxquantity"}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckStockQtyRule(t *testing.T) {
	db := stockDB(t)
	defineCheckStockQty(t, db)

	var over, under types.OID
	err := db.Run(func(tx *Txn) error {
		var err error
		over, err = tx.Create("stock", map[string]types.Value{
			"name": types.String_("bolts"), "quantity": types.Int(100), "maxquantity": types.Int(40),
		})
		if err != nil {
			return err
		}
		under, err = tx.Create("stock", map[string]types.Value{
			"name": types.String_("nuts"), "quantity": types.Int(10), "maxquantity": types.Int(40),
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := db.Store().Get(over)
	if v := o.MustGet("quantity"); v.AsInt() != 40 {
		t.Errorf("over-quantity object clamped to %v, want 40", v)
	}
	u, _ := db.Store().Get(under)
	if v := u.MustGet("quantity"); v.AsInt() != 10 {
		t.Errorf("under-quantity object changed to %v, want 10", v)
	}
	if db.Stats().RuleExecutions != 1 {
		t.Errorf("RuleExecutions = %d, want 1 (set-oriented execution)", db.Stats().RuleExecutions)
	}
}

// The set-oriented semantics: one execution processes every pending
// object together (the paper: "all the objects created and not checked
// yet by the rule are processed together in a single rule execution").
func TestSetOrientedSingleExecution(t *testing.T) {
	db := stockDB(t)
	defineCheckStockQty(t, db)
	err := db.Run(func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			if _, err := tx.Create("stock", map[string]types.Value{
				"quantity": types.Int(100 + int64(i)), "maxquantity": types.Int(7),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().RuleExecutions != 1 {
		t.Fatalf("RuleExecutions = %d, want 1", db.Stats().RuleExecutions)
	}
	oids, _ := db.Store().Select("stock")
	for _, oid := range oids {
		o, _ := db.Store().Get(oid)
		if o.MustGet("quantity").AsInt() != 7 {
			t.Errorf("object %s not clamped", oid)
		}
	}
}

// EndLine boundaries: an immediate rule runs after its line; objects
// created on a later line are processed by a later consideration
// (consuming mode).
func TestLineBoundariesAndConsumption(t *testing.T) {
	db := stockDB(t)
	defineCheckStockQty(t, db)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := tx.Create("stock", map[string]types.Value{
		"quantity": types.Int(50), "maxquantity": types.Int(10)})
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if o, _ := tx.Get(o1); o.MustGet("quantity").AsInt() != 10 {
		t.Fatal("rule did not run at line end")
	}
	o2, _ := tx.Create("stock", map[string]types.Value{
		"quantity": types.Int(60), "maxquantity": types.Int(20)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if o, _ := db.Store().Get(o2); o.MustGet("quantity").AsInt() != 20 {
		t.Fatal("rule did not run at commit for the second line")
	}
	if db.Stats().RuleExecutions != 2 {
		t.Errorf("RuleExecutions = %d, want 2", db.Stats().RuleExecutions)
	}
}

// Deferred rules wait for commit.
func TestDeferredCoupling(t *testing.T) {
	db := stockDB(t)
	err := db.DefineRule(
		rules.Def{Name: "auditAtCommit", Coupling: rules.Deferred,
			Event: calculus.P(event.Create("stock"))},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Occurred{Event: calculus.P(event.Create("stock")), Var: "S"},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Create{Class: "show", Once: true, Vals: map[string]cond.Term{
					"item": cond.Const{V: types.String_("audit")},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Store().Select("show"); len(got) != 0 {
		t.Fatal("deferred rule ran before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Store().Select("show"); len(got) != 1 {
		t.Fatal("deferred rule did not run at commit")
	}
}

// Rule cascading: rule A's action triggers rule B; priorities order the
// considerations.
func TestCascadeAndPriority(t *testing.T) {
	db := stockDB(t)
	var order []string
	mkRule := func(name string, prio int, evt calculus.Expr, action act.Statement) {
		t.Helper()
		err := db.DefineRule(
			rules.Def{Name: name, Priority: prio, Event: evt},
			Body{
				Condition: cond.Formula{Atoms: []cond.Atom{
					probe{func() { order = append(order, name) }},
				}},
				Action: act.Action{Statements: []act.Statement{action}},
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	// higher (priority 1) fires on create(stock) and cascades by creating
	// a show object.
	mkRule("higher", 1, calculus.P(event.Create("stock")),
		act.Create{Class: "show", Once: true, Vals: map[string]cond.Term{}})
	// lower (priority 2) also fires on create(stock), after higher.
	db.DefineRule(rules.Def{Name: "lower", Priority: 2, Event: calculus.P(event.Create("stock"))},
		Body{Condition: cond.Formula{Atoms: []cond.Atom{probe{func() { order = append(order, "lower") }}}}})
	// onShow (priority 0) fires on the cascade-created show object and
	// must cut ahead of lower.
	db.DefineRule(rules.Def{Name: "onShow", Priority: 0, Event: calculus.P(event.Create("show"))},
		Body{Condition: cond.Formula{Atoms: []cond.Atom{probe{func() { order = append(order, "onShow") }}}}})

	tx, _ := db.Begin()
	tx.Create("stock", map[string]types.Value{"quantity": types.Int(5)})
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []string{"higher", "onShow", "lower"}
	if len(order) != len(want) {
		t.Fatalf("consideration order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("consideration order = %v, want %v", order, want)
		}
	}
}

// probe is a condition atom recording that the rule was considered; it
// always succeeds with the incoming bindings.
type probe struct{ fn func() }

func (p probe) Eval(_ *cond.Ctx, in []cond.Binding) ([]cond.Binding, error) {
	p.fn()
	return in, nil
}
func (p probe) String() string { return "probe" }

// A self-triggering rule hits the execution limit and the transaction
// rolls back.
func TestRuleLimitAndRollback(t *testing.T) {
	db := New(Options{MaxRuleExecutions: 20})
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	err := db.DefineRule(
		rules.Def{Name: "loop", Event: calculus.P(event.Create("stock"))},
		Body{
			Condition: cond.Formula{}, // always satisfied
			Action: act.Action{Statements: []act.Statement{
				act.Create{Class: "stock", Once: true, Vals: map[string]cond.Term{}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Run(func(tx *Txn) error {
		_, err := tx.Create("stock", nil)
		return err
	})
	if !errors.Is(err, ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
	if db.Store().Len() != 0 {
		t.Fatalf("rollback left %d objects", db.Store().Len())
	}
	// The database remains usable.
	db.DropRule("loop")
	if err := db.Run(func(tx *Txn) error {
		_, err := tx.Create("stock", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if db.Store().Len() != 1 {
		t.Fatal("database unusable after rollback")
	}
}

func TestExplicitRollback(t *testing.T) {
	db := stockDB(t)
	tx, _ := db.Begin()
	tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.Store().Len() != 0 {
		t.Fatal("rollback did not undo the creation")
	}
	if err := tx.EndLine(); !errors.Is(err, ErrNoTransaction) {
		t.Fatal("operations on a closed transaction accepted")
	}
	// A new transaction can begin.
	if _, err := db.Begin(); err != nil {
		t.Fatal(err)
	}
}

// Composite-event rule: create(stock) followed on the same object by a
// quantity modification (instance precedence).
func TestCompositeEventRule(t *testing.T) {
	db := stockDB(t)
	seq := calculus.PrecI(calculus.P(event.Create("stock")), calculus.P(event.Modify("stock", "quantity")))
	var flagged []types.OID
	err := db.DefineRule(
		rules.Def{Name: "freshThenTouched", Event: seq},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Occurred{Event: seq, Var: "S"},
				recordVar{"S", &flagged},
			}},
			Action: act.Action{},
		})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin()
	o1, _ := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	o2, _ := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 0 {
		t.Fatal("rule fired before the sequence completed")
	}
	tx.Modify(o1, "quantity", types.Int(2))
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 1 || flagged[0] != o1 {
		t.Fatalf("flagged = %v, want [%v]", flagged, o1)
	}
	_ = o2
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// recordVar records the OIDs a variable is bound to.
type recordVar struct {
	name string
	out  *[]types.OID
}

func (r recordVar) Eval(ctx *cond.Ctx, in []cond.Binding) ([]cond.Binding, error) {
	slot := ctx.Slot(r.name)
	for _, row := range in {
		*r.out = append(*r.out, row[slot].AsOID())
	}
	return in, nil
}
func (r recordVar) String() string { return "record(" + r.name + ")" }

// A negation rule needs R non-empty: a transaction with no events leaves
// it untriggered; a transaction with an unrelated event fires it at
// commit.
func TestNegationRuleReactivity(t *testing.T) {
	db := stockDB(t)
	considered := 0
	err := db.DefineRule(
		rules.Def{Name: "noCreates", Coupling: rules.Deferred,
			Event: calculus.Neg(calculus.P(event.Create("stock")))},
		Body{
			Condition: cond.Formula{Atoms: []cond.Atom{probe{func() { considered++ }}}},
			Action:    act.Action{},
		})
	if err != nil {
		t.Fatal(err)
	}
	// Empty transaction: nothing fires.
	if err := db.Run(func(*Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if considered != 0 {
		t.Fatal("negation rule fired on an empty transaction")
	}
	// Unrelated event: fires.
	if err := db.Run(func(tx *Txn) error {
		_, err := tx.Create("show", map[string]types.Value{"quantity": types.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if considered != 1 {
		t.Fatalf("considered = %d, want 1", considered)
	}
	// A stock creation suppresses it.
	if err := db.Run(func(tx *Txn) error {
		_, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if considered != 1 {
		t.Fatalf("negation rule fired although the negated event occurred (considered = %d)", considered)
	}
}

// Rules persist across transactions; triggering state does not.
func TestTransactionIsolationOfTriggering(t *testing.T) {
	db := stockDB(t)
	fired := 0
	pair := calculus.Conj(calculus.P(event.Create("stock")), calculus.P(event.Create("show")))
	err := db.DefineRule(
		rules.Def{Name: "pair", Event: pair},
		Body{Condition: cond.Formula{Atoms: []cond.Atom{probe{func() { fired++ }}}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// First transaction: only the stock half.
	db.Run(func(tx *Txn) error {
		_, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
		return err
	})
	// Second transaction: only the show half. The conjunction must NOT
	// span transactions (the Event Base is per-transaction).
	db.Run(func(tx *Txn) error {
		_, err := tx.Create("show", map[string]types.Value{"quantity": types.Int(1)})
		return err
	})
	if fired != 0 {
		t.Fatalf("conjunction spanned transactions (fired = %d)", fired)
	}
	// Both halves in one transaction: fires.
	db.Run(func(tx *Txn) error {
		if _, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)}); err != nil {
			return err
		}
		_, err := tx.Create("show", map[string]types.Value{"quantity": types.Int(1)})
		return err
	})
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestEngineErrors(t *testing.T) {
	db := stockDB(t)
	if _, err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Begin(); err == nil {
		t.Fatal("nested transaction accepted")
	}
	if err := db.DefineRule(rules.Def{Name: "r", Event: calculus.P(event.Create("stock"))}, Body{}); err == nil {
		t.Fatal("rule definition inside a transaction accepted")
	}
	db.txn.Rollback()

	if err := db.DefineRule(rules.Def{Name: "ghost",
		Event: calculus.P(event.Create("nosuchclass"))}, Body{}); err == nil {
		t.Fatal("rule on unknown class accepted")
	}

	tx, _ := db.Begin()
	if _, err := tx.Create("nosuch", nil); err == nil {
		t.Fatal("create of unknown class accepted")
	}
	if err := tx.Modify(99, "quantity", types.Int(1)); err == nil {
		t.Fatal("modify of missing object accepted")
	}
	if err := tx.Delete(99); err == nil {
		t.Fatal("delete of missing object accepted")
	}
	tx.Rollback()
}

// A condition error mid-cascade rolls the transaction back.
func TestConditionErrorRollsBack(t *testing.T) {
	db := stockDB(t)
	err := db.DefineRule(
		rules.Def{Name: "broken", Event: calculus.P(event.Create("stock"))},
		Body{Condition: cond.Formula{Atoms: []cond.Atom{
			cond.Compare{L: cond.Attr{Var: "S", Attr: "quantity"}, Op: cond.CmpGt, R: cond.Const{V: types.Int(0)}},
		}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Run(func(tx *Txn) error {
		_, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)})
		return err
	})
	if err == nil {
		t.Fatal("unbound-variable condition did not error")
	}
	if db.Store().Len() != 0 {
		t.Fatal("failed transaction left state behind")
	}
}

func TestSelectLogsEvents(t *testing.T) {
	db := stockDB(t)
	fired := 0
	err := db.DefineRule(
		rules.Def{Name: "onSelect", Event: calculus.P(event.T(event.OpSelect, "stock"))},
		Body{Condition: cond.Formula{Atoms: []cond.Atom{probe{func() { fired++ }}}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	db.Run(func(tx *Txn) error {
		if _, err := tx.Create("stock", map[string]types.Value{"quantity": types.Int(1)}); err != nil {
			return err
		}
		_, err := tx.Select("stock")
		return err
	})
	if fired != 1 {
		t.Fatalf("select rule fired %d times, want 1", fired)
	}
}
