package schema

import (
	"testing"

	"chimera/internal/types"
)

func stockSchema(t *testing.T) *Schema {
	t.Helper()
	s := New()
	if _, err := s.Define("stock",
		Attribute{"name", types.KindString},
		Attribute{"quantity", types.KindInt},
		Attribute{"maxquantity", types.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefineAndLookup(t *testing.T) {
	s := stockSchema(t)
	c, ok := s.Class("stock")
	if !ok {
		t.Fatal("stock not found")
	}
	if k, ok := c.Attr("quantity"); !ok || k != types.KindInt {
		t.Error("quantity attribute wrong")
	}
	if _, ok := c.Attr("missing"); ok {
		t.Error("phantom attribute")
	}
	if got := s.Names(); len(got) != 1 || got[0] != "stock" {
		t.Errorf("Names = %v", got)
	}
}

func TestDefineErrors(t *testing.T) {
	s := stockSchema(t)
	if _, err := s.Define("stock"); err == nil {
		t.Error("duplicate class accepted")
	}
	if _, err := s.Define(""); err == nil {
		t.Error("empty class name accepted")
	}
	if _, err := s.Define("bad", Attribute{"", types.KindInt}); err == nil {
		t.Error("unnamed attribute accepted")
	}
	if _, err := s.Define("bad2",
		Attribute{"x", types.KindInt}, Attribute{"x", types.KindInt}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := s.DefineSub("sub", "nosuch"); err == nil {
		t.Error("unknown superclass accepted")
	}
}

func TestInheritance(t *testing.T) {
	s := New()
	order, err := s.Define("order",
		Attribute{"item", types.KindString},
		Attribute{"quantity", types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	nfo, err := s.DefineSub("notFilledOrder", "order",
		Attribute{"missing", types.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := nfo.Attr("item"); !ok || k != types.KindString {
		t.Error("inherited attribute missing")
	}
	if !nfo.IsA(order) || !nfo.IsA(nfo) {
		t.Error("IsA along the hierarchy broken")
	}
	if order.IsA(nfo) {
		t.Error("superclass IsA subclass")
	}
	attrs := nfo.Attributes()
	if len(attrs) != 3 || attrs[0].Name != "item" || attrs[2].Name != "missing" {
		t.Errorf("Attributes order = %v", attrs)
	}
	if _, err := s.DefineSub("bad", "order", Attribute{"item", types.KindInt}); err == nil {
		t.Error("redeclaring an inherited attribute accepted")
	}
}

// MustClass looks up a class and panics if absent.
func (s *Schema) MustClass(name string) *Class {
	c, ok := s.classes[name]
	if !ok {
		panic("schema: unknown class " + name)
	}
	return c
}

func TestValidate(t *testing.T) {
	s := stockSchema(t)
	c := s.MustClass("stock")
	ok := map[string]types.Value{
		"name": types.String_("bolts"), "quantity": types.Int(5),
	}
	if err := Validate(c, ok); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := Validate(c, map[string]types.Value{"nope": types.Int(1)}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := Validate(c, map[string]types.Value{"quantity": types.String_("x")}); err == nil {
		t.Error("wrong kind accepted")
	}
}
