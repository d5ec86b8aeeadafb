package object

import (
	"slices"
	"testing"

	"chimera/internal/schema"
	"chimera/internal/types"
)

func newStockStore(t *testing.T) *Store {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("stock",
		schema.Attribute{Name: "name", Kind: types.KindString},
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Define("order",
		schema.Attribute{Name: "item", Kind: types.KindString},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DefineSub("notFilledOrder", "order",
		schema.Attribute{Name: "missing", Kind: types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	return NewStore(s)
}

// solo opens the store's only writer line, as the single-session engine
// does: no latches, and rolled-back creations give their OIDs back.
func solo(st *Store) *Line { return st.BeginLine(LineOptions{Solo: true}) }

// seed commits one object through a solo line.
func seed(t *testing.T, st *Store, class string, vals map[string]types.Value) types.OID {
	t.Helper()
	ln := solo(st)
	oid, err := ln.Create(class, vals)
	if err != nil {
		t.Fatal(err)
	}
	ln.Commit()
	return oid
}

func TestCreateGetModify(t *testing.T) {
	st := newStockStore(t)
	ln := solo(st)
	oid, err := ln.Create("stock", map[string]types.Value{
		"name": types.String_("bolts"), "quantity": types.Int(5),
	})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := st.Get(oid)
	if !ok {
		t.Fatal("object missing")
	}
	if v, _ := o.Get("name"); v.AsString() != "bolts" {
		t.Error("name wrong")
	}
	if v, _ := o.Get("maxquantity"); !v.IsNull() {
		t.Error("unset attribute should be null")
	}
	if err := ln.Modify(oid, "quantity", types.Int(9)); err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Get("quantity"); v.AsInt() != 9 {
		t.Error("modify did not apply")
	}
	if _, err := o.Get("nope"); err == nil {
		t.Error("unknown attribute read accepted")
	}
	ln.Commit()
}

func TestCreateErrors(t *testing.T) {
	ln := solo(newStockStore(t))
	if _, err := ln.Create("nosuch", nil); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := ln.Create("stock", map[string]types.Value{"quantity": types.String_("x")}); err == nil {
		t.Error("ill-typed value accepted")
	}
}

func TestModifyDeleteErrors(t *testing.T) {
	ln := solo(newStockStore(t))
	if err := ln.Modify(99, "quantity", types.Int(1)); err == nil {
		t.Error("modify of missing object accepted")
	}
	oid, _ := ln.Create("stock", nil)
	if err := ln.Modify(oid, "nope", types.Int(1)); err == nil {
		t.Error("modify of unknown attribute accepted")
	}
	if err := ln.Modify(oid, "quantity", types.String_("x")); err == nil {
		t.Error("ill-typed modify accepted")
	}
	if err := ln.Delete(99); err == nil {
		t.Error("delete of missing object accepted")
	}
}

func TestSelectByClassAndHierarchy(t *testing.T) {
	st := newStockStore(t)
	o1 := seed(t, st, "order", map[string]types.Value{"item": types.String_("a")})
	o2 := seed(t, st, "notFilledOrder", map[string]types.Value{"item": types.String_("b")})
	seed(t, st, "stock", nil)

	orders, err := st.Select("order")
	if err != nil {
		t.Fatal(err)
	}
	if len(orders) != 2 || orders[0] != o1 || orders[1] != o2 {
		t.Fatalf("Select(order) = %v", orders)
	}
	nfos, _ := st.Select("notFilledOrder")
	if len(nfos) != 1 || nfos[0] != o2 {
		t.Fatalf("Select(notFilledOrder) = %v", nfos)
	}
	if _, err := st.Select("ghost"); err == nil {
		t.Error("unknown class accepted")
	}
	var all []types.OID
	for _, o := range st.Objects() {
		all = append(all, o.OID())
	}
	if want := []types.OID{o1, o2, o2 + 1}; !slices.Equal(all, want) {
		t.Errorf("Objects = %v, want %v", all, want)
	}
}

func TestSpecializeGeneralize(t *testing.T) {
	st := newStockStore(t)
	ln := solo(st)
	oid, _ := ln.Create("order", map[string]types.Value{"item": types.String_("x")})
	if err := ln.Specialize(oid, "notFilledOrder"); err != nil {
		t.Fatal(err)
	}
	o, _ := st.Get(oid)
	if o.Class().Name() != "notFilledOrder" {
		t.Error("specialize did not move the object")
	}
	if v, _ := o.Get("item"); v.AsString() != "x" {
		t.Error("attributes lost on specialize")
	}
	if err := ln.Modify(oid, "missing", types.Int(3)); err != nil {
		t.Fatal(err)
	}
	// Generalizing back drops the subclass attribute.
	if err := ln.Generalize(oid, "order"); err != nil {
		t.Fatal(err)
	}
	if o.Class().Name() != "order" {
		t.Error("generalize did not move the object")
	}
	if _, err := o.Get("missing"); err == nil {
		t.Error("subclass attribute survived generalize")
	}

	// Errors.
	if err := ln.Specialize(oid, "stock"); err == nil {
		t.Error("specialize to unrelated class accepted")
	}
	if err := ln.Generalize(oid, "notFilledOrder"); err == nil {
		t.Error("generalize to subclass accepted")
	}
	if err := ln.Specialize(999, "notFilledOrder"); err == nil {
		t.Error("specialize of missing object accepted")
	}
}

func TestUndoRollback(t *testing.T) {
	st := newStockStore(t)
	base := seed(t, st, "stock", map[string]types.Value{"quantity": types.Int(1)})

	ln := solo(st)
	oid, _ := ln.Create("stock", map[string]types.Value{"quantity": types.Int(2)})
	ln.Modify(base, "quantity", types.Int(42))
	ln.Delete(base)
	o2, _ := ln.Create("order", map[string]types.Value{"item": types.String_("z")})
	ln.Specialize(o2, "notFilledOrder")

	ln.Rollback()

	if st.Len() != 1 {
		t.Fatalf("Len after rollback = %d, want 1", st.Len())
	}
	if _, ok := st.Get(oid); ok {
		t.Error("created object survived rollback")
	}
	o, ok := st.Get(base)
	if !ok {
		t.Fatal("deleted object not restored")
	}
	if v, _ := o.Get("quantity"); v.AsInt() != 1 {
		t.Errorf("modify not undone: quantity = %v", v)
	}
	// A solo line's rolled-back creations give their OIDs back, keeping
	// allocation dense.
	if oid2 := seed(t, st, "stock", nil); oid2 != oid {
		t.Errorf("OID after rollback = %v, want %v", oid2, oid)
	}
}

func TestRollbackClassIndexes(t *testing.T) {
	st := newStockStore(t)
	ln := solo(st)
	oid, _ := ln.Create("order", nil)
	ln.Specialize(oid, "notFilledOrder")
	ln.Rollback()
	for _, class := range []string{"order", "notFilledOrder"} {
		got, _ := st.Select(class)
		if len(got) != 0 {
			t.Errorf("Select(%s) after rollback = %v, want empty", class, got)
		}
	}
}

func TestObjectString(t *testing.T) {
	st := newStockStore(t)
	oid := seed(t, st, "stock", map[string]types.Value{
		"name": types.String_("nut"), "quantity": types.Int(3),
	})
	o, _ := st.Get(oid)
	want := `stock(o1){name: "nut", quantity: 3}`
	if got := o.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}
