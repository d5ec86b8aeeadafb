package object

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"chimera/internal/schema"
	"chimera/internal/types"
)

// mapObject is the oracle's object: a class and a map of the attributes
// ever set, the naive definition of what a row of slots holds. Creating
// puts the given values in the map, modifying sets one, generalizing
// deletes the ones the superclass lacks, specializing keeps them all.
type mapObject struct {
	class *schema.Class
	attrs map[string]types.Value
}

// mapStore is the oracle's store: the objects and the allocator. Undo is
// by copy: a savepoint or a line start keeps a copy of the whole store.
type mapStore struct {
	next types.OID
	objs map[types.OID]*mapObject
}

func (m *mapStore) clone() *mapStore {
	c := &mapStore{next: m.next, objs: make(map[types.OID]*mapObject, len(m.objs))}
	for oid, o := range m.objs {
		attrs := make(map[string]types.Value, len(o.attrs))
		for k, v := range o.attrs {
			attrs[k] = v
		}
		c.objs[oid] = &mapObject{class: o.class, attrs: attrs}
	}
	return c
}

func (o *mapObject) render(oid types.OID) string {
	keys := make([]string, 0, len(o.attrs))
	for k := range o.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("%s(%s){", o.class.Name(), oid)
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %s", k, o.attrs[k])
	}
	return s + "}"
}

// oracleSchema is a chain three classes deep with a sibling branch, so
// an object can move more than one level at once and two subclasses
// give their own attributes the same slot.
func oracleSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	for _, d := range []struct {
		name, parent string
		attrs        []schema.Attribute
	}{
		{"stock", "", []schema.Attribute{{Name: "name", Kind: types.KindString}, {Name: "quantity", Kind: types.KindInt}}},
		{"order", "", []schema.Attribute{{Name: "item", Kind: types.KindString}, {Name: "qty", Kind: types.KindInt}}},
		{"notFilledOrder", "order", []schema.Attribute{{Name: "missing", Kind: types.KindInt}}},
		{"urgent", "notFilledOrder", []schema.Attribute{{Name: "deadline", Kind: types.KindInt}, {Name: "note", Kind: types.KindString}}},
		{"cancelled", "order", []schema.Attribute{{Name: "reason", Kind: types.KindString}}},
	} {
		if _, err := s.DefineSub(d.name, d.parent, d.attrs...); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// randValue draws a value of kind k, Null one time in four.
func randValue(r *rand.Rand, k types.Kind) types.Value {
	if r.IntN(4) == 0 {
		return types.Null
	}
	if k == types.KindString {
		return types.String_(fmt.Sprint("s", r.IntN(5)))
	}
	return types.Int(int64(r.IntN(9)))
}

// checkAgainst compares the objects of a store or snapshot with the
// oracle's: the same OIDs, and for each the same class, the same String,
// and the same Lookup of every attribute of every class.
func checkAgainst(t *testing.T, where string, sch *schema.Schema, objs []*Object, m *mapStore) {
	t.Helper()
	if len(objs) != len(m.objs) {
		t.Fatalf("%s: %d objects, oracle %d", where, len(objs), len(m.objs))
	}
	for _, o := range objs {
		want, ok := m.objs[o.OID()]
		if !ok {
			t.Fatalf("%s: %s is not in the oracle", where, o)
		}
		if got, w := o.String(), want.render(o.OID()); got != w {
			t.Fatalf("%s: object %s, oracle %s", where, got, w)
		}
		for _, c := range sch.Ordered() {
			for _, a := range c.Attributes() {
				v, set := o.Lookup(a.Name)
				wv, wset := want.attrs[a.Name]
				if set != wset || !v.Equal(wv) || v.Kind() != wv.Kind() {
					t.Fatalf("%s: %s Lookup(%s) = %v, %v; oracle %v, %v", where, o, a.Name, v, set, wv, wset)
				}
				if _, in := o.Class().Attr(a.Name); in {
					if g, err := o.Get(a.Name); err != nil || !g.Equal(wv) || g.Kind() != wv.Kind() {
						t.Fatalf("%s: %s Get(%s) = %v, %v; oracle %v", where, o, a.Name, g, err, wv)
					}
				} else if _, err := o.Get(a.Name); err == nil {
					t.Fatalf("%s: %s Get(%s) of an attribute its class lacks succeeded", where, o, a.Name)
				}
			}
		}
	}
}

// checkStore compares the live store, its allocator and its class
// extensions with the oracle.
func checkStore(t *testing.T, where string, st *Store, m *mapStore) {
	t.Helper()
	checkAgainst(t, where, st.Schema(), st.Objects(), m)
	if st.NextOID() != m.next {
		t.Fatalf("%s: allocator at %d, oracle %d", where, st.NextOID(), m.next)
	}
	for _, c := range st.Schema().Ordered() {
		got, _ := st.Select(c.Name())
		n := 0
		for _, o := range m.objs {
			if o.class.IsA(c) {
				n++
			}
		}
		if len(got) != n {
			t.Fatalf("%s: Select(%s) = %v, oracle has %d", where, c.Name(), got, n)
		}
		for _, oid := range got {
			if !m.objs[oid].class.IsA(c) {
				t.Fatalf("%s: Select(%s) holds %s of class %s", where, c.Name(), oid, m.objs[oid].class.Name())
			}
		}
	}
}

// restoredRollback is what recovery does with an open line's undo log:
// it rebuilds the store from the line's current state, reinstates the
// exported log into a new line and rolls it back. The result is the
// store the line began on.
func restoredRollback(t *testing.T, st *Store, recs []UndoRec) *Store {
	t.Helper()
	st2 := NewStore(st.Schema())
	for _, o := range st.Objects() {
		vals := map[string]types.Value{}
		for _, a := range o.Class().Attributes() {
			if v, ok := o.Lookup(a.Name); ok {
				vals[a.Name] = v
			}
		}
		if err := st2.Restore(o.OID(), o.Class().Name(), vals); err != nil {
			t.Fatal(err)
		}
	}
	st2.SetNextOID(st.NextOID())
	ln := solo(st2)
	if err := ln.RestoreUndo(recs); err != nil {
		t.Fatal(err)
	}
	ln.Rollback()
	return st2
}

// TestObjectsMatchMapOracle drives a solo line through random creations,
// modifications (to values and to Null), specializations and
// generalizations across one and two levels, deletions, savepoints,
// rollbacks to them, whole-line rollbacks and commits, and compares the
// store with the map-backed oracle after every step. Each commit stages
// its write set and publishes; the snapshot must match the committed
// oracle state, and must go on matching it while the live store changes
// underneath. At random steps the open line's undo log is exported,
// reinstated over a rebuilt store and rolled back, which must give the
// state the line began on.
func TestObjectsMatchMapOracle(t *testing.T) {
	for sd := uint64(1); sd <= 30; sd++ {
		r := rand.New(rand.NewPCG(sd, 48))
		sch := oracleSchema(t)
		classes := sch.Ordered()
		st := NewStore(sch)
		cur := &mapStore{objs: map[types.OID]*mapObject{}}
		ln := solo(st)
		begun, sp, atSP := cur.clone(), ln.Savepoint(), cur.clone()
		st.PublishAll(nil)
		pub, pubModel := st.Published(), cur.clone()
		pick := func() (types.OID, *mapObject, bool) {
			if len(cur.objs) == 0 {
				return types.NilOID, nil, false
			}
			oids := make([]types.OID, 0, len(cur.objs))
			for oid := range cur.objs {
				oids = append(oids, oid)
			}
			sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
			oid := oids[r.IntN(len(oids))]
			return oid, cur.objs[oid], true
		}
		for step := 0; step < 300; step++ {
			var op string
			var err error
			switch k := r.IntN(12); {
			case k < 2:
				c := classes[r.IntN(len(classes))]
				vals := map[string]types.Value{}
				for _, a := range c.Attributes() {
					if r.IntN(2) == 0 {
						vals[a.Name] = randValue(r, a.Kind)
					}
				}
				op = fmt.Sprintf("create %s %v", c.Name(), vals)
				var oid types.OID
				if oid, err = ln.Create(c.Name(), vals); err == nil {
					cur.next++
					if oid != cur.next {
						t.Fatalf("seed %d step %d: created %s, oracle allocates %s", sd, step, oid, cur.next)
					}
					cur.objs[oid] = &mapObject{class: c, attrs: vals}
				}
			case k < 5:
				oid, o, ok := pick()
				if !ok {
					continue
				}
				a := o.class.Attributes()[r.IntN(len(o.class.Attributes()))]
				v := randValue(r, a.Kind)
				if k == 4 {
					v = types.Null
				}
				op = fmt.Sprintf("modify %s.%s = %v", oid, a.Name, v)
				if err = ln.Modify(oid, a.Name, v); err == nil {
					o.attrs[a.Name] = v
				}
			case k == 5:
				oid, o, ok := pick()
				if !ok {
					continue
				}
				var subs []*schema.Class
				for _, c := range classes {
					if c != o.class && c.IsA(o.class) {
						subs = append(subs, c)
					}
				}
				if len(subs) == 0 {
					continue
				}
				c := subs[r.IntN(len(subs))]
				op = fmt.Sprintf("specialize %s to %s", oid, c.Name())
				if err = ln.Specialize(oid, c.Name()); err == nil {
					o.class = c
				}
			case k == 6:
				oid, o, ok := pick()
				if !ok || o.class.Parent() == nil {
					continue
				}
				c := o.class.Parent()
				if c.Parent() != nil && r.IntN(2) == 0 {
					c = c.Parent()
				}
				op = fmt.Sprintf("generalize %s to %s", oid, c.Name())
				if err = ln.Generalize(oid, c.Name()); err == nil {
					o.class = c
					for name := range o.attrs {
						if _, in := c.Attr(name); !in {
							delete(o.attrs, name)
						}
					}
				}
			case k == 7:
				oid, _, ok := pick()
				if !ok {
					continue
				}
				op = fmt.Sprintf("delete %s", oid)
				if err = ln.Delete(oid); err == nil {
					delete(cur.objs, oid)
				}
			case k == 8:
				op = "savepoint"
				sp, atSP = ln.Savepoint(), cur.clone()
			case k == 9:
				op = "rollback to savepoint"
				ln.RollbackTo(sp)
				cur = atSP.clone()
			case k == 10:
				if r.IntN(2) == 0 {
					op = "rollback"
					ln.Rollback()
					cur = begun.clone()
				} else {
					op = "commit"
					st.StageTouched(ln.TouchedOIDs())
					ln.Commit()
					pub, pubModel = st.Published(), cur.clone()
				}
				ln.Reopen(LineOptions{Solo: true})
				begun, sp, atSP = cur.clone(), ln.Savepoint(), cur.clone()
			default:
				op = "export, restore and roll back"
				checkStore(t, fmt.Sprintf("seed %d step %d: %s", sd, step, op), restoredRollback(t, st, ln.ExportUndo()), begun)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %s: %v", sd, step, op, err)
			}
			where := fmt.Sprintf("seed %d step %d after %s", sd, step, op)
			checkStore(t, where, st, cur)
			checkAgainst(t, where+", published", sch, pub.Objects(), pubModel)
		}
	}
}

// TestStageTouchedAllocs: staging a commit's write set copies its
// objects into one arena, the headers in one allocation and the rows in
// another, whatever the number of objects: five two-attribute objects
// cost 2 allocations (15, three per object, when each copy had its own
// header, map and map storage).
func TestStageTouchedAllocs(t *testing.T) {
	s := schema.New()
	if _, err := s.Define("pair",
		schema.Attribute{Name: "a", Kind: types.KindInt},
		schema.Attribute{Name: "b", Kind: types.KindString}); err != nil {
		t.Fatal(err)
	}
	st := NewStore(s)
	var oids []types.OID
	for i := 0; i < 5; i++ {
		oids = append(oids, seed(t, st, "pair", map[string]types.Value{"a": types.Int(int64(i)), "b": types.String_("x")}))
	}
	allocs := testing.AllocsPerRun(100, func() { st.StageTouched(oids) })
	if allocs > 2 {
		t.Errorf("staging five objects allocates %.2f times, want at most 2", allocs)
	}
	// The staged copies are the objects' own: a write after staging does
	// not reach them.
	ln := solo(st)
	if err := ln.Modify(oids[0], "a", types.Int(99)); err != nil {
		t.Fatal(err)
	}
	ln.Commit()
	if o, _ := st.Published().Get(oids[0]); o.String() != `pair(o1){a: 0, b: "x"}` {
		t.Errorf("published %s after a later write, want a: 0", o)
	}
}
