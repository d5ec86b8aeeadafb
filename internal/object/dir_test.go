package object

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"chimera/internal/types"
)

// dirShape walks every node of d, checking that each counts its non-nil
// slots, that none is empty or kept as a spare, that d counts its
// objects and that each object sits at its own OID. It returns the
// number of nodes and the height, 0 for a directory without a root.
func dirShape(tb testing.TB, where string, d *dir) (nodes, height int) {
	tb.Helper()
	if d.root == nil {
		if d.n != 0 {
			tb.Fatalf("%s: no root but %d objects", where, d.n)
		}
		return 0, 0
	}
	objs := 0
	var walk func(nd *inner, shift uint, base uint64)
	walk = func(nd *inner, shift uint, base uint64) {
		nodes++
		if nd == d.spareInner {
			tb.Fatalf("%s: the spare inner node is in the tree", where)
		}
		n := 0
		for i := range nd.kids {
			if shift == dirBits {
				if nd.kids[i] != nil {
					tb.Fatalf("%s: an inner node above the leaves has a child", where)
				}
				lf := nd.leaves[i]
				if lf == nil {
					continue
				}
				n++
				nodes++
				if lf == d.spareLeaf {
					tb.Fatalf("%s: the spare leaf is in the tree", where)
				}
				m := 0
				for j, o := range lf.objs {
					if o == nil {
						continue
					}
					m++
					if want := base | uint64(i)<<dirBits | uint64(j); uint64(o.oid) != want {
						tb.Fatalf("%s: %s sits at OID %d", where, o.oid, want)
					}
				}
				if m == 0 || m != lf.n {
					tb.Fatalf("%s: a leaf holds %d objects and counts %d", where, m, lf.n)
				}
				objs += m
				continue
			}
			if nd.leaves[i] != nil {
				tb.Fatalf("%s: an inner node at shift %d has a leaf", where, shift)
			}
			if nd.kids[i] != nil {
				n++
				walk(nd.kids[i], shift-dirBits, base|uint64(i)<<shift)
			}
		}
		if n == 0 || n != nd.n {
			tb.Fatalf("%s: an inner node at shift %d holds %d children and counts %d", where, shift, n, nd.n)
		}
	}
	walk(d.root, d.shift, 0)
	if objs != d.n {
		tb.Fatalf("%s: %d objects in the leaves, %d counted", where, objs, d.n)
	}
	return nodes, int(d.shift/dirBits) + 1
}

// checkDir compares d with the oracle m: get of every key of m and of
// every probe, the count and the ascending walk, and d's shape.
func checkDir(tb testing.TB, where string, d *dir, m map[types.OID]*Object, probes []types.OID) {
	tb.Helper()
	dirShape(tb, where, d)
	if d.n != len(m) {
		tb.Fatalf("%s: %d objects, oracle %d", where, d.n, len(m))
	}
	for _, oid := range probes {
		if got, ok := d.get(oid); got != m[oid] || ok != (got != nil) {
			tb.Fatalf("%s: get(%d) = %v, %t; oracle %v", where, oid, got, ok, m[oid])
		}
	}
	want := make([]types.OID, 0, len(m))
	for oid, o := range m {
		want = append(want, oid)
		if got, ok := d.get(oid); got != o || !ok {
			tb.Fatalf("%s: get(%d) = %v, %t; oracle %v", where, oid, got, ok, o)
		}
	}
	slices.Sort(want)
	var got []types.OID
	d.each(func(o *Object) { got = append(got, o.oid) })
	if !slices.Equal(got, want) {
		tb.Fatalf("%s: walk %v, oracle %v", where, got, want)
	}
}

// dirModel drives a directory and its map oracle through set, delete and
// publish steps. A publication freezes the directory as it stands, as
// Store.materialize does: the frozen copy and a copy of the oracle are
// held, and the directory goes on under a new epoch, so its later writes
// copy every node they share with a held copy. Without publications the
// directory keeps epoch 0 and writes in place, like the live store's.
type dirModel struct {
	d      dir
	m      map[types.OID]*Object
	held   []dir
	heldM  []map[types.OID]*Object
	probes []types.OID
}

func newDirModel() *dirModel { return &dirModel{m: map[types.OID]*Object{}} }

func (dm *dirModel) set(oid types.OID) {
	o := &Object{oid: oid}
	dm.d.set(oid, o)
	dm.m[oid] = o
	dm.probes = append(dm.probes, oid)
}

func (dm *dirModel) del(oid types.OID) {
	dm.d.del(oid)
	delete(dm.m, oid)
	dm.probes = append(dm.probes, oid)
}

// publish holds the directory as it stands, keeping the last four.
func (dm *dirModel) publish() {
	m := make(map[types.OID]*Object, len(dm.m))
	for k, v := range dm.m {
		m[k] = v
	}
	dm.held, dm.heldM = append(dm.held, dm.d), append(dm.heldM, m)
	if len(dm.held) > 4 {
		dm.held, dm.heldM = dm.held[1:], dm.heldM[1:]
	}
	dm.d.epoch++
}

// check compares the directory and every held copy with their oracles.
func (dm *dirModel) check(tb testing.TB, where string) {
	tb.Helper()
	if len(dm.probes) > 64 {
		dm.probes = dm.probes[len(dm.probes)-64:]
	}
	checkDir(tb, where, &dm.d, dm.m, dm.probes)
	for i := range dm.held {
		checkDir(tb, fmt.Sprintf("%s, held %d", where, i), &dm.held[i], dm.heldM[i], dm.probes)
	}
}

// fenceposts are the OIDs at the edges of a leaf and of each level.
var fenceposts = []types.OID{1, 63, 64, 65, 4095, 4096, 4097, 262143, 262144, 262145, 1 << 36, math.MaxInt64}

// TestDirMatchesMapOracle drives directories through random sets and
// deletes of keys drawn around the fenceposts, inside one leaf and over
// a few levels, and compares each with a map after every step. Odd
// seeds publish now and then, and every held publication must go on
// reading as it did while the directory writes on.
func TestDirMatchesMapOracle(t *testing.T) {
	for sd := uint64(1); sd <= 8; sd++ {
		r := rand.New(rand.NewPCG(sd, 53))
		dm := newDirModel()
		key := func() types.OID {
			switch r.IntN(4) {
			case 0:
				return max(1, fenceposts[r.IntN(len(fenceposts))]+types.OID(r.IntN(3))-1)
			case 1:
				return types.OID(1 + r.IntN(200))
			case 2:
				return types.OID(1 + r.IntN(20000))
			}
			if len(dm.m) > 0 && r.IntN(2) == 0 {
				for oid := range dm.m {
					return oid
				}
			}
			return types.OID(1 + r.Int64N(1<<20))
		}
		for step := 0; step < 1000; step++ {
			switch k := r.IntN(10); {
			case k < 5:
				dm.set(key())
			case k < 9:
				dm.del(key())
			case sd%2 == 1:
				dm.publish()
			}
			dm.check(t, fmt.Sprintf("seed %d step %d", sd, step))
		}
	}
}

// FuzzOIDDirectory runs the oracle of TestDirMatchesMapOracle on
// fuzzed histories: each four bytes are one step, the first choosing set,
// delete or publish and the other three a key up to 2^24, offset around
// a fencepost when the first byte says so.
func FuzzOIDDirectory(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 1, 2, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 63, 0, 0, 0, 64, 3, 0, 0, 0, 1, 0, 0, 64, 0, 0x04, 0, 0, 1, 0, 0, 63})
	f.Add([]byte{4, 0, 0, 5, 0, 0x10, 0, 0, 3, 0, 0, 0, 5, 0, 0, 5, 1, 0x10, 0, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*512 {
			return
		}
		dm := newDirModel()
		for i := 0; i+4 <= len(data); i += 4 {
			op := data[i]
			oid := types.OID(binary.BigEndian.Uint32(data[i:i+4]) & 0xffffff)
			if op&4 != 0 {
				oid = fenceposts[int(oid)%len(fenceposts)]
			}
			switch op & 3 {
			case 0:
				if oid >= 1 {
					dm.set(oid)
				}
			case 1, 2:
				dm.del(oid)
			case 3:
				dm.publish()
			}
			dm.check(t, fmt.Sprintf("step %d", i/4))
		}
	})
}

// TestDirFenceposts sets the boundary OIDs in ascending order and checks
// where the height grows: two levels hold every OID below 4 096, the
// third takes 4 096 and the fourth 262 144. The neighbours of each stay
// absent. Deleting them newest first keeps the height while an object
// is left and drops every node with the last one.
func TestDirFenceposts(t *testing.T) {
	steps := []struct {
		oid    types.OID
		height int
	}{{1, 2}, {63, 2}, {64, 2}, {65, 2}, {4095, 2}, {4096, 3}, {262144, 4}}
	dm := newDirModel()
	for _, s := range steps {
		dm.set(s.oid)
		dm.probes = append(dm.probes, 0, -5, s.oid-1, s.oid+1)
		dm.check(t, fmt.Sprintf("after setting %d", s.oid))
		if _, h := dirShape(t, "", &dm.d); h != s.height {
			t.Errorf("after setting %d: height %d, want %d", s.oid, h, s.height)
		}
	}
	for i := len(steps) - 1; i >= 0; i-- {
		dm.del(steps[i].oid)
		dm.check(t, fmt.Sprintf("after deleting %d", steps[i].oid))
		nodes, h := dirShape(t, "", &dm.d)
		if i > 0 && h != 4 {
			t.Errorf("after deleting %d: height %d, want 4 while an object is left", steps[i].oid, h)
		}
		if i == 0 && nodes != 0 {
			t.Errorf("empty directory keeps %d nodes", nodes)
		}
	}
}

// TestDirReusesDroppedNodes: objects that come and go at growing OIDs,
// each alone in its inner node and leaf, make no node after the first:
// each deletion keeps the nodes it dropped for the next creation.
func TestDirReusesDroppedNodes(t *testing.T) {
	var d dir
	d.set(1, &Object{oid: 1})
	o, k := &Object{}, types.OID(1)
	if a := testing.AllocsPerRun(500, func() {
		k += 1 << (2 * dirBits)
		o.oid = k
		d.set(k, o)
		d.del(k)
	}); a != 0 {
		t.Errorf("a create and delete alone in their nodes allocate %.2f times, want 0", a)
	}
	if nodes, _ := dirShape(t, "", &d); nodes != 4 {
		t.Errorf("%d nodes left, want the path of 4 to OID 1", nodes)
	}
}

// leafOf returns the leaf holding oid's slot in d, or nil.
func leafOf(d *dir, oid types.OID) *leaf {
	k := uint64(oid)
	nd := d.root
	if nd == nil || k>>(d.shift+dirBits) != 0 {
		return nil
	}
	for sh := d.shift; sh > dirBits; sh -= dirBits {
		if nd = nd.kids[k>>sh&dirMask]; nd == nil {
			return nil
		}
	}
	return nd.leaves[k>>dirBits&dirMask]
}

// TestOlderSnapshotKeepsSharedNodes publishes snapshots of one store
// while commits modify, delete a whole leaf's objects and grow the
// directory a level: each snapshot shares the leaves no commit wrote
// with its predecessor, and the first one reads exactly as before
// through Get, Objects, Len and Select.
func TestOlderSnapshotKeepsSharedNodes(t *testing.T) {
	st, oids := acctStore(t, 300)
	first := st.Published()
	render := func(sn *Snapshot) string {
		s := fmt.Sprint(sn.Len())
		for _, o := range sn.Objects() {
			s += " " + o.String()
		}
		sel, _ := sn.Select("acct")
		return s + fmt.Sprint(sel)
	}
	before := render(first)
	commit := func(f func(ln *Line) error) *Snapshot {
		t.Helper()
		ln := solo(st)
		if err := f(ln); err != nil {
			t.Fatal(err)
		}
		st.StageTouched(ln.TouchedOIDs())
		ln.Commit()
		return st.Published()
	}
	prev := first
	for i, f := range []func(ln *Line) error{
		func(ln *Line) error { // two objects of one leaf
			if err := ln.Modify(oids[0], "balance", types.Int(1)); err != nil {
				return err
			}
			return ln.Modify(oids[1], "balance", types.Int(2))
		},
		func(ln *Line) error { // every object of the leaf of OIDs 128-191
			for _, oid := range oids[127:191] {
				if err := ln.Delete(oid); err != nil {
					return err
				}
			}
			return nil
		},
		func(ln *Line) error { // one object at 5 000: a third level
			return ln.CreateWithOID(5000, "acct", map[string]types.Value{"balance": types.Int(5)})
		},
	} {
		next := commit(f)
		if got := render(first); got != before {
			t.Fatalf("commit %d: the first snapshot reads\n%s\nwant\n%s", i, got, before)
		}
		dirShape(t, fmt.Sprintf("commit %d", i), &next.objs)
		if leafOf(&next.objs, 250) != leafOf(&prev.objs, 250) {
			t.Errorf("commit %d: the leaf of OID 250, which it did not write, was copied", i)
		}
		if leafOf(&next.objs, oids[0]) == leafOf(&first.objs, oids[0]) {
			t.Errorf("commit %d: the leaf of OID %s is the first snapshot's, which it wrote after", i, oids[0])
		}
		prev = next
	}
	if leafOf(&prev.objs, 150) != nil {
		t.Error("the leaf whose objects were all deleted is still in the directory")
	}
	if o, ok := prev.Get(5000); !ok || !o.MustGet("balance").Equal(types.Int(5)) {
		t.Errorf("Get(5000) = %v, %t after the directory grew", o, ok)
	}
}

// TestDeleteAllButOneLeavesOnePath deletes all but one of 5 000 objects
// (three levels): the live store's directory and the snapshot the
// deletions publish each keep one path of nodes, root to leaf.
func TestDeleteAllButOneLeavesOnePath(t *testing.T) {
	st, oids := acctStore(t, 5000)
	ln := solo(st)
	for _, oid := range oids {
		if oid != 4500 {
			if err := ln.Delete(oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.StageTouched(ln.TouchedOIDs())
	ln.Commit()
	sn := st.Published()
	for _, c := range []struct {
		name string
		d    *dir
	}{{"store", &st.objects}, {"snapshot", &sn.objs}} {
		nodes, h := dirShape(t, c.name, c.d)
		if _, ok := c.d.get(4500); nodes != 3 || h != 3 || !ok {
			t.Errorf("%s: %d nodes at height %d holding OID 4500: %t; want one path of 3", c.name, nodes, h, ok)
		}
	}
}

// TestRestoreRefusesOIDBelowOne: OIDs start at 1, so restoring or
// replaying a creation at 0 or below fails and leaves the directory
// without a node.
func TestRestoreRefusesOIDBelowOne(t *testing.T) {
	st := newStockStore(t)
	vals := map[string]types.Value{"name": types.String_("a")}
	for _, oid := range []types.OID{0, -5, math.MinInt64} {
		if err := st.Restore(oid, "stock", vals); err == nil {
			t.Errorf("Restore at OID %d succeeded", oid)
		}
		ln := st.BeginLine(LineOptions{})
		if err := ln.CreateWithOID(oid, "stock", vals); err == nil {
			t.Errorf("CreateWithOID at OID %d succeeded", oid)
		}
		ln.Rollback()
		if o, ok := st.Get(oid); ok {
			t.Errorf("Get(%d) = %s", oid, o)
		}
	}
	if nodes, _ := dirShape(t, "store", &st.objects); nodes != 0 || st.Len() != 0 {
		t.Errorf("after refused restores: %d objects in %d nodes", st.Len(), nodes)
	}
}

// TestCost_MaterializeFollowsHeight: publishing a two-object,
// modify-only commit copies one path per leaf written, so its cost
// follows the directory's height, not the store's size. At 2 048 objects
// (two levels) it allocates the snapshot, the root and the two leaves;
// at 65 536 (three levels) one inner node more, the one the two paths
// share below the root. Bytes are pinned below 4 KB at both sizes.
func TestCost_MaterializeFollowsHeight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cost := func(n int) (allocs, bytes uint64, height int) {
		st, oids := acctStore(t, n)
		var before, after runtime.MemStats
		const rounds = 20
		for i := 0; i < rounds; i++ {
			ln := solo(st)
			for _, oid := range []types.OID{oids[0], oids[1000]} {
				if err := ln.Modify(oid, "balance", types.Int(int64(i))); err != nil {
					t.Fatal(err)
				}
			}
			st.StageTouched(ln.TouchedOIDs())
			ln.Commit()
			runtime.ReadMemStats(&before)
			st.Published()
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		_, height = dirShape(t, "", &st.Published().objs)
		return allocs / rounds, bytes / rounds, height
	}
	a1, b1, h1 := cost(2048)
	a2, b2, h2 := cost(65536)
	if h1 != 2 || h2 != 3 {
		t.Fatalf("heights %d and %d, want 2 and 3", h1, h2)
	}
	if a1 != 4 || a2 != a1+1 {
		t.Errorf("materializing allocates %d times at 2 048 objects and %d at 65 536, want 4 and 5", a1, a2)
	}
	if b1 > 4096 || b2 > 4096 {
		t.Errorf("materializing allocates %d B at 2 048 objects and %d B at 65 536, want at most 4 096 B", b1, b2)
	}
}

// TestCost_ChurnedStoreKeepsItsNodes: the live store's directory follows
// its live objects, not its allocator. With 31 objects kept and one
// transient live at a time, 10 000 and 100 000 create/delete pairs (the
// allocator past 4 096, so three levels, both times) leave the same five
// nodes: the path to the kept objects and the transient's inner node and
// leaf.
func TestCost_ChurnedStoreKeepsItsNodes(t *testing.T) {
	st := newStockStore(t)
	vals := map[string]types.Value{"name": types.String_("a")}
	for i := 0; i < 31; i++ {
		seed(t, st, "stock", vals)
	}
	transient := seed(t, st, "stock", vals)
	churn := func(pairs int) int {
		for i := 0; i < pairs; i++ {
			ln := solo(st)
			oid, err := ln.Create("stock", vals)
			if err != nil {
				t.Fatal(err)
			}
			if err := ln.Delete(transient); err != nil {
				t.Fatal(err)
			}
			ln.Commit()
			transient = oid
		}
		nodes, h := dirShape(t, "store", &st.objects)
		if st.Len() != 32 || h != 3 {
			t.Fatalf("after %d pairs: %d objects at height %d, want 32 at 3", pairs, st.Len(), h)
		}
		return nodes
	}
	if n1, n2 := churn(10000), churn(90000); n1 != 5 || n2 != n1 {
		t.Errorf("the directory holds %d nodes after 10 000 pairs and %d after 100 000, want 5 both times", n1, n2)
	}
}

// BenchmarkStoreGet reads the live store's objects of a 2 048-object
// store in a fixed random order.
func BenchmarkStoreGet(b *testing.B) {
	st, oids := acctStore(b, 2048)
	order := readOrder(oids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(order[i%len(order)]); !ok {
			b.Fatal("object missing")
		}
	}
}

// BenchmarkSnapshotGet reads a published snapshot's objects of a
// 2 048-object store in a fixed random order.
func BenchmarkSnapshotGet(b *testing.B) {
	st, oids := acctStore(b, 2048)
	sn := st.Published()
	order := readOrder(oids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sn.Get(order[i%len(order)]); !ok {
			b.Fatal("object missing")
		}
	}
}

// readOrder returns oids shuffled by a fixed seed.
func readOrder(oids []types.OID) []types.OID {
	order := slices.Clone(oids)
	rand.New(rand.NewPCG(7, 53)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
