package object

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
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

// checkSelect compares every class extension of a snapshot with the
// oracle's: the OIDs whose class is or specializes the class, ascending,
// nil when there are none.
func checkSelect(t *testing.T, where string, sn *Snapshot, m *mapStore) {
	t.Helper()
	for _, c := range sn.Schema().Ordered() {
		var want []types.OID
		for oid, o := range m.objs {
			if o.class.IsA(c) {
				want = append(want, oid)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, err := sn.Select(c.Name())
		if err != nil || !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: snapshot Select(%s) = %v, %v; oracle %v", where, c.Name(), got, err, want)
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
// its write set and publishes; the snapshot's objects and every class
// extension it selects must match the committed oracle state, and must
// go on matching it while the live store changes underneath, as must an
// older snapshot held across later commits. Some steps stage two commits
// before one publication — a create then a delete of one object, a
// specialization then a generalization back, or two modifications — so
// the extension cache sees net deltas that leave membership unchanged
// after it was filled. At random steps the open line's undo log is
// exported, reinstated over a rebuilt store and rolled back, which must
// give the state the line began on.
func TestObjectsMatchMapOracle(t *testing.T) {
	var shapes [3]int // create then delete, specialize then back, modify twice
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
		held, heldModel, commits := pub, pubModel, 0
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
		subclasses := func(o *mapObject) []*schema.Class {
			var subs []*schema.Class
			for _, c := range classes {
				if c != o.class && c.IsA(o.class) {
					subs = append(subs, c)
				}
			}
			return subs
		}
		// commit ends the line with a commit, staging its write set, and
		// reopens it; publish also takes the next snapshot.
		commit := func(publish bool) {
			st.StageTouched(ln.TouchedOIDs())
			ln.Commit()
			if publish {
				pub, pubModel = st.Published(), cur.clone()
				if commits++; commits%8 == 0 {
					held, heldModel = pub, pubModel
				}
			}
			ln.Reopen(LineOptions{Solo: true})
			begun, sp, atSP = cur.clone(), ln.Savepoint(), cur.clone()
		}
		for step := 0; step < 300; step++ {
			var op string
			var err error
			switch k := r.IntN(13); {
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
				subs := subclasses(o)
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
					ln.Reopen(LineOptions{Solo: true})
					begun, sp, atSP = cur.clone(), ln.Savepoint(), cur.clone()
				} else {
					op = "commit"
					commit(true)
				}
			case k == 11:
				// Publish the open work and fill every extension, then
				// stage two commits whose net delta keeps every object's
				// presence and class, and publish them once.
				commit(true)
				checkSelect(t, fmt.Sprintf("seed %d step %d before two commits", sd, step), pub, pubModel)
				switch oid, o, ok := pick(); {
				case r.IntN(3) == 0:
					c, vals := classes[r.IntN(len(classes))], map[string]types.Value{}
					op, shapes[0] = fmt.Sprintf("commit create %s, commit its delete", c.Name()), shapes[0]+1
					if oid, err = ln.Create(c.Name(), vals); err == nil {
						cur.next++
						cur.objs[oid] = &mapObject{class: c, attrs: vals}
						commit(false)
						err = ln.Delete(oid)
						delete(cur.objs, oid)
					}
				case ok && len(subclasses(o)) > 0:
					was, c := o.class, subclasses(o)[0]
					op, shapes[1] = fmt.Sprintf("commit specialize %s to %s, commit its generalization back", oid, c.Name()), shapes[1]+1
					if err = ln.Specialize(oid, c.Name()); err == nil {
						o.class = c
						commit(false)
						err = ln.Generalize(oid, was.Name())
						o.class = was
					}
				case ok:
					a := o.class.Attributes()[0]
					v := randValue(r, a.Kind)
					op, shapes[2] = fmt.Sprintf("commit modify %s.%s = %v, commit it again", oid, a.Name, v), shapes[2]+1
					if err = ln.Modify(oid, a.Name, types.Null); err == nil {
						o.attrs[a.Name] = types.Null
						commit(false)
						err = ln.Modify(oid, a.Name, v)
						o.attrs[a.Name] = v
					}
				default:
					continue
				}
				if err == nil {
					commit(true)
				}
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
			checkSelect(t, where+", published", pub, pubModel)
			checkAgainst(t, where+", held", sch, held.Objects(), heldModel)
			checkSelect(t, where+", held", held, heldModel)
		}
	}
	if slices.Contains(shapes[:], 0) {
		t.Errorf("two-commit shapes run %v times: the generator misses one", shapes)
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

// acctStore returns a published store of n objects of one class, acct.
func acctStore(tb testing.TB, n int) (*Store, []types.OID) {
	tb.Helper()
	s := schema.New()
	if _, err := s.Define("acct", schema.Attribute{Name: "balance", Kind: types.KindInt}); err != nil {
		tb.Fatal(err)
	}
	st := NewStore(s)
	ln := solo(st)
	oids := make([]types.OID, n)
	for i := range oids {
		oid, err := ln.Create("acct", map[string]types.Value{"balance": types.Int(0)})
		if err != nil {
			tb.Fatal(err)
		}
		oids[i] = oid
	}
	ln.Commit()
	st.PublishAll(nil)
	return st, oids
}

// modifyOne commits a modification of oid and stages it: the store's
// membership is unchanged.
func modifyOne(tb testing.TB, st *Store, oid types.OID, v int64) {
	tb.Helper()
	ln := solo(st)
	if err := ln.Modify(oid, "balance", types.Int(v)); err != nil {
		tb.Fatal(err)
	}
	st.StageTouched(ln.TouchedOIDs())
	ln.Commit()
}

// TestSnapshotSelectAllocs: a snapshot's class extension is scanned and
// sorted once and then copied out: a warm Select allocates exactly the
// slice it returns. A commit that leaves membership unchanged hands the
// filled extension on, so the next snapshot's first Select allocates
// that one slice too (a fresh cache would scan, grow and sort again).
// The returned slice is the caller's: writing to it leaves the next
// Select unchanged.
func TestSnapshotSelectAllocs(t *testing.T) {
	st, oids := acctStore(t, 256)
	sn := st.Published()
	if _, err := sn.Select("acct"); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { sn.Select("acct") }); a != 1 {
		t.Errorf("a warm snapshot Select allocates %.2f times, want 1", a)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		modifyOne(t, st, oids[i], int64(i))
		next := st.Published()
		if next == sn {
			t.Fatal("a staged commit published no new snapshot")
		}
		runtime.ReadMemStats(&before)
		got, err := next.Select("acct")
		runtime.ReadMemStats(&after)
		if err != nil || len(got) != len(oids) {
			t.Fatalf("Select after a modification = %d OIDs, %v; want %d", len(got), err, len(oids))
		}
		if a := after.Mallocs - before.Mallocs; a != 1 {
			t.Errorf("the first Select after modify-only commit %d allocates %d times, want 1", i, a)
		}
		sn = next
	}
	got, _ := sn.Select("acct")
	got[0], got[1] = got[1], types.NilOID
	if again, _ := sn.Select("acct"); !slices.Equal(again, oids) {
		t.Errorf("Select after writing to its last result = %v…, want %v…", again[:2], oids[:2])
	}
}

// BenchmarkSnapshotSelect selects a 2 048-object class extension from
// the published snapshot: warm, and with a modify-only commit published
// between selects.
func BenchmarkSnapshotSelect(b *testing.B) {
	for _, between := range []bool{false, true} {
		b.Run(fmt.Sprintf("modify-between=%t", between), func(b *testing.B) {
			st, oids := acctStore(b, 2048)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if between {
					modifyOne(b, st, oids[i%len(oids)], int64(i))
				}
				if got, err := st.Published().Select("acct"); err != nil || len(got) != len(oids) {
					b.Fatalf("Select = %d OIDs, %v", len(got), err)
				}
			}
		})
	}
}
