package chimera_test

import (
	"errors"
	"strings"
	"testing"

	"chimera"
	"chimera/internal/figures"
)

// The full quickstart through the public facade: script loading, the
// paper's rule, transactions.
func TestFacadeQuickstart(t *testing.T) {
	db := chimera.Open()
	if err := chimera.Load(db, `
class stock(name: string, quantity: integer, maxquantity: integer)

define immediate checkStockQty for stock
events create
condition stock(S), occurred(create, S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end`); err != nil {
		t.Fatal(err)
	}
	var oid chimera.OID
	err := db.Run(func(tx *chimera.Txn) error {
		var err error
		oid, err = tx.Create("stock", chimera.Values{
			"name": chimera.Str("bolts"), "quantity": chimera.Int(99),
			"maxquantity": chimera.Int(40)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := db.Store().Get(oid)
	if !ok {
		t.Fatal("object missing")
	}
	if got := o.MustGet("quantity").AsInt(); got != 40 {
		t.Fatalf("quantity = %d, want 40 (clamped by the rule)", got)
	}
}

func TestFacadeLoadErrors(t *testing.T) {
	db := chimera.Open()
	if err := chimera.Load(db, `class broken(`); err == nil {
		t.Error("syntax error accepted")
	}
	if err := chimera.Load(db, `
define r for ghost
events create
end`); err == nil {
		t.Error("rule over unknown class accepted")
	}
	if err := chimera.Load(db, `class dup(a: integer) class dup(a: integer)`); err == nil {
		t.Error("duplicate class accepted")
	}
}

// Composite rule through the expression-builder API.
func TestFacadeExpressionBuilders(t *testing.T) {
	e := chimera.Conj(
		chimera.Ev(chimera.CreateOf("stock")),
		chimera.Neg(chimera.Ev(chimera.DeleteOf("stock"))),
	)
	got := e.String()
	if got != "create(stock) + -delete(stock)" {
		t.Errorf("String = %q", got)
	}
	parsed, err := chimera.ParseExpr(got, "")
	if err != nil {
		t.Fatal(err)
	}
	if parsed.String() != got {
		t.Errorf("round trip = %q", parsed.String())
	}
}

func TestMustParseExprPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseExpr did not panic on a syntax error")
		}
	}()
	chimera.MustParseExpr("create(")
}

// The figure index exposed by the figures package covers every artifact
// the per-experiment index of DESIGN.md promises.
func TestFigureIndexComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range figures.All() {
		ids[f.ID] = true
	}
	for _, want := range []string{"1", "2", "3", "4", "5", "6", "7", "x1", "x2", "x4", "x6"} {
		if !ids[want] {
			t.Errorf("figure %s missing from the index", want)
		}
	}
}

// A multi-transaction scenario through the facade: rules survive across
// transactions, triggering state does not, rollback undoes everything.
func TestFacadeTransactionLifecycle(t *testing.T) {
	db := chimera.Open()
	chimera.MustLoad(db, `
class item(n: integer)
class logline(n: integer)

define onItem for item
events create
condition occurred(create, X), X.n > 0
action create(logline, n = X.n)
end`)

	// Rolled-back transaction leaves nothing.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Create("item", chimera.Values{"n": chimera.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.EndLine(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.Store().Len() != 0 {
		t.Fatal("rollback left objects (including the rule's logline)")
	}

	// Committed transaction keeps both the item and the rule's output.
	if err := db.Run(func(tx *chimera.Txn) error {
		_, err := tx.Create("item", chimera.Values{"n": chimera.Int(7)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	logs, _ := db.Store().Select("logline")
	if len(logs) != 1 {
		t.Fatalf("loglines = %d, want 1", len(logs))
	}
	o, _ := db.Store().Get(logs[0])
	if o.MustGet("n").AsInt() != 7 {
		t.Error("rule copied the wrong value")
	}
}

// The condition of a rule loaded from a script renders back to its
// source shape (spot check of the String methods used by `show rules`).
func TestRuleRendering(t *testing.T) {
	db := chimera.Open()
	chimera.MustLoad(db, `
class stock(quantity: integer, maxquantity: integer)
define r for stock
events create , modify(quantity)
end`)
	st, ok := db.Support().Rule("r")
	if !ok {
		t.Fatal("rule missing")
	}
	if got := st.Def.Event.String(); got != "create(stock) , modify(stock.quantity)" {
		t.Errorf("event rendering = %q", got)
	}
	if !strings.Contains(st.Filter.Set().String(), "create(stock)") {
		t.Errorf("V(E) = %s", st.Filter.Set())
	}
}

// Facade-level snapshot, restore and analysis round trip.
func TestFacadeSnapshotAndAnalysis(t *testing.T) {
	db := chimera.Open()
	chimera.MustLoad(db, `
class item(n: integer)
define r for item
events create
condition occurred(create, X), X.n > 10
action modify(item.n, X, 10)
end`)
	if err := db.Run(func(tx *chimera.Txn) error {
		_, err := tx.Create("item", chimera.Values{"n": chimera.Int(50)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rep := chimera.Analyze(db)
	if !rep.Terminates {
		t.Fatalf("clamp-style rule flagged: %s", rep)
	}

	path := t.TempDir() + "/snap.json"
	if err := chimera.Save(db, path); err != nil {
		t.Fatal(err)
	}
	back, err := chimera.Restore(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Store().Len() != 1 {
		t.Fatal("restore lost the object")
	}
	// The restored rule is live.
	if err := back.Run(func(tx *chimera.Txn) error {
		_, err := tx.Create("item", chimera.Values{"n": chimera.Int(99)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	oids, _ := back.Store().Select("item")
	for _, oid := range oids {
		o, _ := back.Store().Get(oid)
		if o.MustGet("n").AsInt() > 10 {
			t.Fatal("restored rule inactive")
		}
	}
	if _, err := chimera.Restore(path + ".missing"); err == nil {
		t.Fatal("restore of missing file succeeded")
	}
}

// OpenWith honours explicit options (here: a tiny execution budget).
func TestFacadeOpenWith(t *testing.T) {
	db := chimera.OpenWith(chimera.Options{MaxRuleExecutions: 1})
	chimera.MustLoad(db, `
class item(n: integer)
define a for item priority 1
events create
condition occurred(create, X)
action modify(item.n, X, 1)
end
define b for item priority 2
events create
condition occurred(create, X)
action modify(item.n, X, 2)
end`)
	err := db.Run(func(tx *chimera.Txn) error {
		_, err := tx.Create("item", chimera.Values{"n": chimera.Int(0)})
		return err
	})
	if err == nil {
		t.Fatal("execution budget of 1 not enforced with two firing rules")
	}
}

// External signals through the facade.
func TestFacadeRaise(t *testing.T) {
	db := chimera.Open()
	chimera.MustLoad(db, `
class logline(n: integer)
define onPing
events external(ping)
action create(logline, n = 1)
end`)
	if err := db.Run(func(tx *chimera.Txn) error { return tx.Raise("ping") }); err != nil {
		t.Fatal(err)
	}
	if got, _ := db.Store().Select("logline"); len(got) != 1 {
		t.Fatal("external rule did not run")
	}
}

func TestFacadeDerivedCombinators(t *testing.T) {
	a := chimera.Ev(chimera.CreateOf("a"))
	b := chimera.Ev(chimera.CreateOf("b"))
	c := chimera.Ev(chimera.CreateOf("c"))
	if got := chimera.Sequence(a, b, c).String(); got != "create(a) < create(b) < create(c)" {
		t.Errorf("Sequence = %q", got)
	}
	if got := chimera.NoneOf(a, b).String(); got != "-(create(a) , create(b))" {
		t.Errorf("NoneOf = %q", got)
	}
	if got := chimera.SameObject(a, b).String(); got != "create(a) += create(b)" {
		t.Errorf("SameObject = %q", got)
	}
	if got := chimera.AllOf(a, b).String(); got != "create(a) + create(b)" {
		t.Errorf("AllOf = %q", got)
	}
	if got := chimera.AnyOf(a, b).String(); got != "create(a) , create(b)" {
		t.Errorf("AnyOf = %q", got)
	}
}

// The durability surface through the public facade: a durable open, a
// committed transaction through the quickstart rule, a clean close, the
// ErrNeedsRecovery refusal, and a recovery landing on the same state.
func TestFacadeDurability(t *testing.T) {
	dir := t.TempDir()
	fs, err := chimera.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := chimera.DefaultOptions()
	opts.Durability = chimera.DurabilityOptions{Store: fs, Fsync: chimera.FsyncPerCommit}
	db, err := chimera.OpenDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	chimera.MustLoad(db, `
class stock(name: string, quantity: integer, maxquantity: integer)

define immediate checkStockQty for stock
events create
condition stock(S), occurred(create, S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end`)
	var oid chimera.OID
	err = db.Run(func(tx *chimera.Txn) error {
		var err error
		oid, err = tx.Create("stock", chimera.Values{
			"name": chimera.Str("bolts"), "quantity": chimera.Int(99),
			"maxquantity": chimera.Int(40)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Closing the database closes its store; reopening the directory is
	// the crash-restart shape.
	if fs, err = chimera.NewFileStore(dir); err != nil {
		t.Fatal(err)
	}
	opts.Durability.Store = fs
	if _, err := chimera.OpenDurable(opts); !errors.Is(err, chimera.ErrNeedsRecovery) {
		t.Fatalf("OpenDurable on a used store = %v, want ErrNeedsRecovery", err)
	}
	rdb, rtx, rep, err := chimera.Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rtx != nil {
		t.Fatal("clean shutdown recovered an open transaction")
	}
	if rep == nil {
		t.Fatal("nil recovery report")
	}
	o, ok := rdb.Store().Get(oid)
	if !ok {
		t.Fatal("object missing after recovery")
	}
	if got := o.MustGet("quantity").AsInt(); got != 40 {
		t.Fatalf("recovered quantity = %d, want 40", got)
	}
}

// RestoreWith accepts durable options: the restored state becomes the
// store's first checkpoint, so a recovery finds it. Invalid options are
// an error, not a panic.
func TestFacadeRestoreWithDurable(t *testing.T) {
	db := chimera.Open()
	chimera.MustLoad(db, `class stock(name: string, quantity: integer)`)
	if err := db.Run(func(tx *chimera.Txn) error {
		_, err := tx.Create("stock", chimera.Values{"name": chimera.Str("bolts"), "quantity": chimera.Int(7)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/db.json"
	if err := chimera.Save(db, path); err != nil {
		t.Fatal(err)
	}
	store := chimera.NewMemStore()
	opts := chimera.DefaultOptions()
	opts.Durability = chimera.DurabilityOptions{Store: store, Fsync: chimera.FsyncOff}
	restored, err := chimera.RestoreWith(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	opts.Durability.Store = store.Clone()
	rdb, _, _, err := chimera.Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rdb.Store().Len() != 1 {
		t.Fatalf("recovered %d object(s), want the restored one", rdb.Store().Len())
	}
	bad := chimera.DefaultOptions()
	bad.SegmentSize = -1
	if _, err := chimera.RestoreWith(path, bad); err == nil {
		t.Error("RestoreWith accepted a negative SegmentSize")
	}
}
