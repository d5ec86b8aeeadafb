package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// buildDB assembles a database with a hierarchy, objects of every value
// kind, and two rules (one with condition and action).
func buildDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.New(engine.DefaultOptions())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineClass("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "weight", Kind: types.KindFloat},
		schema.Attribute{Name: "active", Kind: types.KindBool},
		schema.Attribute{Name: "since", Kind: types.KindTime},
		schema.Attribute{Name: "supplier", Kind: types.KindOID},
	))
	must(db.DefineClass("supplier",
		schema.Attribute{Name: "name", Kind: types.KindString}))
	must(db.DefineSubclass("preferredSupplier", "supplier",
		schema.Attribute{Name: "discount", Kind: types.KindInt}))

	must(db.DefineRule(
		rules.Def{Name: "clamp", Target: "stock",
			Event:    calculus.P(event.Create("stock")),
			Priority: 2},
		engine.Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "stock", Var: "S"},
				cond.Occurred{Event: calculus.P(event.Create("stock")), Var: "S"},
				cond.Compare{L: cond.Attr{Var: "S", Attr: "quantity"},
					Op: cond.CmpGt, R: cond.Const{V: types.Int(100)}},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "stock", Attr: "quantity", Var: "S",
					Value: cond.Const{V: types.Int(100)}},
			}},
		}))
	must(db.DefineRule(
		rules.Def{Name: "watch",
			Event: calculus.Conj(
				calculus.P(event.Create("supplier")),
				calculus.Neg(calculus.P(event.Delete("supplier")))),
			Coupling: rules.Deferred, Consumption: rules.Preserving},
		engine.Body{}))

	must(db.Run(func(tx *engine.Txn) error {
		sup, err := tx.Create("supplier", map[string]types.Value{
			"name": types.String_("acme")})
		if err != nil {
			return err
		}
		if err := tx.Specialize(sup, "preferredSupplier"); err != nil {
			return err
		}
		if err := tx.Modify(sup, "discount", types.Int(10)); err != nil {
			return err
		}
		_, err = tx.Create("stock", map[string]types.Value{
			"name": types.String_("bolts"), "quantity": types.Int(7),
			"weight": types.Float(1.25), "active": types.Bool(true),
			"since": types.TimeVal(3), "supplier": types.Ref(sup),
		})
		return err
	}))
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := buildDB(t)
	snap, err := Capture(db)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(back, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Schema survived, including the hierarchy.
	if got := restored.Schema().Names(); len(got) != 3 {
		t.Fatalf("classes = %v", got)
	}
	pref, ok := restored.Schema().Class("preferredSupplier")
	if !ok || pref.Parent() == nil || pref.Parent().Name() != "supplier" {
		t.Fatal("hierarchy lost")
	}

	// Objects survived with identical OIDs and values of every kind.
	if restored.Store().Len() != db.Store().Len() {
		t.Fatalf("objects = %d, want %d", restored.Store().Len(), db.Store().Len())
	}
	for _, oid := range []types.OID{1, 2} {
		orig, _ := db.Store().Get(oid)
		cp, ok := restored.Store().Get(oid)
		if !ok {
			t.Fatalf("%s missing after restore", oid)
		}
		if cp.Class().Name() != orig.Class().Name() {
			t.Errorf("%s class = %s, want %s", oid, cp.Class().Name(), orig.Class().Name())
		}
		for _, a := range orig.Class().Attributes() {
			v, had := orig.Lookup(a.Name)
			if got, has := cp.Lookup(a.Name); has != had || !got.Equal(v) || got.Kind() != v.Kind() {
				t.Errorf("%s.%s = %s (%s, set %v), want %s (%s, set %v)",
					oid, a.Name, got, got.Kind(), has, v, v.Kind(), had)
			}
		}
	}
	if sup, _ := restored.Store().Get(1); sup.Class().Name() != "preferredSupplier" {
		t.Errorf("o1 class = %s, want preferredSupplier", sup.Class().Name())
	}

	// Rules survived with modes, priority, target, condition and action.
	names := restored.Support().Rules()
	if len(names) != 2 || names[0] != "watch" || names[1] != "clamp" {
		t.Fatalf("rules = %v (priority order: watch at 0, clamp at 2)", names)
	}
	clampSt, _ := restored.Support().Rule("clamp")
	if clampSt.Def.Priority != 2 || clampSt.Def.Target != "stock" {
		t.Errorf("clamp def = %+v", clampSt.Def)
	}
	watchSt, _ := restored.Support().Rule("watch")
	if watchSt.Def.Coupling != rules.Deferred || watchSt.Def.Consumption != rules.Preserving {
		t.Errorf("watch def = %+v", watchSt.Def)
	}
	if !calculus.Equal(watchSt.Def.Event, calculus.Conj(
		calculus.P(event.Create("supplier")),
		calculus.Neg(calculus.P(event.Delete("supplier"))))) {
		t.Errorf("watch event = %s", watchSt.Def.Event)
	}

	// The restored rules are live: a new over-quantity stock is clamped.
	if err := restored.Run(func(tx *engine.Txn) error {
		_, err := tx.Create("stock", map[string]types.Value{
			"quantity": types.Int(500)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	oids, _ := restored.Store().Select("stock")
	var newOID types.OID
	for _, oid := range oids {
		if oid != 2 {
			newOID = oid
		}
	}
	o, _ := restored.Store().Get(newOID)
	if o.MustGet("quantity").AsInt() != 100 {
		t.Errorf("restored rule inactive: quantity = %s", o.MustGet("quantity"))
	}
	// OIDs continue past the restored maximum.
	if newOID <= 2 {
		t.Errorf("OID allocation did not resume: %v", newOID)
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := buildDB(t)
	path := filepath.Join(t.TempDir(), "db.json")
	if err := SaveFile(db, path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Store().Len() != db.Store().Len() {
		t.Fatal("file round trip lost objects")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json"), engine.DefaultOptions()); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

func TestRenderRuleParses(t *testing.T) {
	db := buildDB(t)
	st, _ := db.Support().Rule("clamp")
	src := engine.RenderRule(st.Def, db.RuleBody("clamp"))
	if !strings.Contains(src, "define immediate consuming clamp for stock priority 2") {
		t.Errorf("rendered rule:\n%s", src)
	}
	snap, err := Capture(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rules) != 2 {
		t.Fatalf("rules = %v", snap.Rules)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(&Snapshot{Format: 99}, engine.DefaultOptions()); err == nil {
		t.Error("unsupported format accepted")
	}
	bad := &Snapshot{Format: CurrentFormat,
		Classes: []ClassRecord{{Name: "c", Attrs: []AttrRecord{{Name: "a", Kind: "blob"}}}}}
	if _, err := Load(bad, engine.DefaultOptions()); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = &Snapshot{Format: CurrentFormat,
		Objects: []ObjectRecord{{OID: 1, Class: "ghost"}}}
	if _, err := Load(bad, engine.DefaultOptions()); err == nil {
		t.Error("object of unknown class accepted")
	}
	bad = &Snapshot{Format: CurrentFormat, Rules: []string{"define broken"}}
	if _, err := Load(bad, engine.DefaultOptions()); err == nil {
		t.Error("broken rule source accepted")
	}
	var buf bytes.Buffer
	buf.WriteString("{not json")
	if _, err := Read(&buf); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestSnapshotFormatErrors(t *testing.T) {
	// A format-1 snapshot (pre-NextOID) is old, not unknown: callers
	// can distinguish "migrate" from "refuse".
	if _, err := Load(&Snapshot{Format: 1}, engine.DefaultOptions()); !errors.Is(err, ErrOldFormat) {
		t.Errorf("Load(format 1) = %v, want ErrOldFormat", err)
	}
	if _, err := Load(&Snapshot{Format: 99}, engine.DefaultOptions()); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("Load(format 99) = %v, want ErrUnknownFormat", err)
	}
	if _, err := Load(&Snapshot{Format: 0}, engine.DefaultOptions()); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("Load(format 0) = %v, want ErrUnknownFormat", err)
	}
	if _, err := Load(&Snapshot{Format: CurrentFormat}, engine.DefaultOptions()); err != nil {
		t.Errorf("Load(current format) = %v", err)
	}
}

func TestSnapshotNextOID(t *testing.T) {
	db := buildDB(t)
	// Delete the newest object so the allocator's high-water mark sits
	// above every surviving OID — a restore that derived the allocator
	// from the live objects would hand the dead OID out again.
	var top types.OID
	if err := db.Run(func(tx *engine.Txn) error {
		oid, err := tx.Create("supplier", map[string]types.Value{
			"name": types.String_("doomed")})
		if err != nil {
			return err
		}
		top = oid
		return tx.Delete(oid)
	}); err != nil {
		t.Fatal(err)
	}

	snap, err := Capture(db)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextOID != int64(db.Store().NextOID()) {
		t.Fatalf("snapshot NextOID = %d, store says %d", snap.NextOID, db.Store().NextOID())
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(back, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(func(tx *engine.Txn) error {
		oid, err := tx.Create("supplier", map[string]types.Value{
			"name": types.String_("fresh")})
		if oid <= top {
			t.Errorf("OID %v reused at or below the deleted high-water %v", oid, top)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMultiSessionSharedPlan(t *testing.T) {
	db := buildDB(t)
	snap, err := Capture(db)
	if err != nil {
		t.Fatal(err)
	}

	// Restore under the concurrent configuration: several transaction
	// lines plus the cross-rule shared plan must accept a captured
	// rule set unchanged.
	opts := engine.DefaultOptions()
	opts.MaxSessions = 4
	restored, err := Load(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	tx1, err := restored.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := restored.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Create("stock", map[string]types.Value{
		"quantity": types.Int(900)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Create("supplier", map[string]types.Value{
		"name": types.String_("late")}); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// The restored clamp rule fired through the shared plan.
	oids, _ := restored.Store().Select("stock")
	clamped := false
	for _, oid := range oids {
		o, _ := restored.Store().Get(oid)
		if o.MustGet("quantity").AsInt() == 100 {
			clamped = true
		}
	}
	if !clamped {
		t.Error("restored rule did not fire under multi-session shared-plan config")
	}
}

func TestValueRecordCorruption(t *testing.T) {
	for _, r := range []ValueRecord{
		{Kind: "integer"}, {Kind: "float"}, {Kind: "string"},
		{Kind: "boolean"}, {Kind: "time"}, {Kind: "oid"}, {Kind: "mystery"},
	} {
		if _, err := decodeValue(r); err == nil {
			t.Errorf("decodeValue(%+v) accepted", r)
		}
	}
}
