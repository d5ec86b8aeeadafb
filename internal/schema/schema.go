// Package schema implements the Chimera class system: named classes with
// typed attributes arranged in a single-inheritance is-a hierarchy.
//
// The hierarchy matters to the event substrate in two ways. First, the
// paper's primitive event types "generalize" and "specialize" move an
// object along the hierarchy (e.g. an order becoming a notFilledOrder in
// Figure 3). Second, the event-on-class accessor of Figure 4 reports the
// class an affected object belongs to, and targeted rules are scoped to
// one class.
package schema

import (
	"fmt"
	"slices"
	"sort"

	"chimera/internal/types"
)

// Attribute describes one typed attribute of a class.
type Attribute struct {
	Name string
	Kind types.Kind
}

// Class is a named set of attributes, optionally specializing a parent
// class (from which it inherits all attributes).
//
// A class lays its attributes out parent first: slot i of a class is
// slot i of each of its subclasses, so an object that specializes or
// generalizes along the chain keeps every attribute it keeps at the same
// slot, and an object's values can be a row indexed by slot.
type Class struct {
	name   string
	parent *Class
	own    []Attribute      // attributes declared by this class, in order
	all    []Attribute      // every attribute, parent first: all[i] is slot i
	slots  map[string]int32 // attribute name -> slot
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Parent returns the superclass, or nil for a root class.
func (c *Class) Parent() *Class { return c.parent }

// Attr looks up an attribute (own or inherited) by name.
func (c *Class) Attr(name string) (types.Kind, bool) {
	if i, ok := c.slots[name]; ok {
		return c.all[i].Kind, true
	}
	return types.KindNull, false
}

// Slot returns the slot of an attribute (own or inherited): its index in
// Attributes, the same in every subclass.
func (c *Class) Slot(name string) (int, bool) {
	i, ok := c.slots[name]
	return int(i), ok
}

// Own returns the attributes the class declares itself, in declaration
// order; Attributes puts the inherited ones in front. Callers must not
// modify the slice.
func (c *Class) Own() []Attribute { return c.own }

// Attributes returns the full attribute list, inherited first, in
// declaration order: Attributes()[i] is the attribute at slot i. Callers
// must not modify the slice.
func (c *Class) Attributes() []Attribute { return c.all }

// IsA reports whether c equals anc or specializes it (transitively).
func (c *Class) IsA(anc *Class) bool {
	for x := c; x != nil; x = x.parent {
		if x == anc {
			return true
		}
	}
	return false
}

// Schema is the catalog of classes of a database.
type Schema struct {
	classes map[string]*Class
}

// New returns an empty schema.
func New() *Schema { return &Schema{classes: make(map[string]*Class)} }

// Define registers a new root class. Attribute names must be unique.
func (s *Schema) Define(name string, attrs ...Attribute) (*Class, error) {
	return s.DefineSub(name, "", attrs...)
}

// DefineSub registers a class specializing parentName (or a root class if
// parentName is empty).
func (s *Schema) DefineSub(name, parentName string, attrs ...Attribute) (*Class, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty class name")
	}
	if _, dup := s.classes[name]; dup {
		return nil, fmt.Errorf("schema: class %q already defined", name)
	}
	var parent *Class
	if parentName != "" {
		p, ok := s.classes[parentName]
		if !ok {
			return nil, fmt.Errorf("schema: unknown superclass %q", parentName)
		}
		parent = p
	}
	c := &Class{name: name, parent: parent, slots: make(map[string]int32)}
	if parent != nil {
		c.all = slices.Clip(parent.all)
		for n, i := range parent.slots {
			c.slots[n] = i
		}
	}
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema: class %q has an unnamed attribute", name)
		}
		if _, dup := c.slots[a.Name]; dup {
			return nil, fmt.Errorf("schema: class %q redeclares attribute %q", name, a.Name)
		}
		c.slots[a.Name] = int32(len(c.all))
		c.all = append(c.all, a)
		c.own = append(c.own, a)
	}
	s.classes[name] = c
	return c, nil
}

// Class looks up a class by name.
func (s *Schema) Class(name string) (*Class, bool) {
	c, ok := s.classes[name]
	return c, ok
}

// Names returns all class names in sorted order.
func (s *Schema) Names() []string {
	out := make([]string, 0, len(s.classes))
	for n := range s.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Ordered returns every class, each after its superclass and otherwise
// in name order: the order in which defining them again rebuilds the
// catalog.
func (s *Schema) Ordered() []*Class {
	out := make([]*Class, 0, len(s.classes))
	done := make(map[*Class]bool, len(s.classes))
	var visit func(c *Class)
	visit = func(c *Class) {
		if done[c] {
			return
		}
		if c.parent != nil {
			visit(c.parent)
		}
		done[c] = true
		out = append(out, c)
	}
	for _, name := range s.Names() {
		visit(s.classes[name])
	}
	return out
}

// Validate checks a value set against the class's attributes: every named
// attribute must exist and the value must be assignable to its kind.
func Validate(c *Class, vals map[string]types.Value) error {
	for name, v := range vals {
		k, ok := c.Attr(name)
		if !ok {
			return fmt.Errorf("schema: class %q has no attribute %q", c.Name(), name)
		}
		if !v.AssignableTo(k) {
			return fmt.Errorf("schema: attribute %s.%s is %s, got %s",
				c.Name(), name, k, v.Kind())
		}
	}
	return nil
}
