package event

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"chimera/internal/clock"
	"chimera/internal/metrics"
	"chimera/internal/types"
)

// figure3 builds the exact Event Base of the paper's Figure 3:
//
//	e1 create(stock)            o1 t1
//	e2 create(stock)            o2 t2
//	e3 create(order)            o3 t3
//	e4 create(notFilledOrder)   o3 t4
//	e5 modify(stock.quantity)   o1 t5
//	e6 modify(stock.quantity)   o2 t6
//	e7 delete(stock)            o1 t7
func figure3(t *testing.T) *Base {
	t.Helper()
	b := NewBase()
	rows := []struct {
		ty  Type
		oid types.OID
	}{
		{Create("stock"), 1},
		{Create("stock"), 2},
		{Create("order"), 3},
		{Create("notFilledOrder"), 3},
		{Modify("stock", "quantity"), 1},
		{Modify("stock", "quantity"), 2},
		{Delete("stock"), 1},
	}
	for i, r := range rows {
		occ, err := b.Append(r.ty, r.oid, clock.Time(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if occ.EID != EID(i+1) {
			t.Fatalf("EID = %v, want e%d", occ.EID, i+1)
		}
	}
	return b
}

func TestFigure3EventBase(t *testing.T) {
	b := figure3(t)
	if b.Len() != 7 {
		t.Fatalf("Len = %d, want 7", b.Len())
	}
	s := b.String()
	for _, want := range []string{
		"e1 | create(stock) | o1 | t1",
		"e4 | create(notFilledOrder) | o3 | t4",
		"e7 | delete(stock) | o1 | t7",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Figure 3 table missing row %q in:\n%s", want, s)
		}
	}
}

// Figure 4's accessor matches on the Figure 3 base.
func TestFigure4Accessors(t *testing.T) {
	b := figure3(t)
	all := b.All()
	e1, e3, e6, e7 := all[0], all[2], all[5], all[6]

	if TypeOf(e1) != Create("stock") {
		t.Errorf("type(e1) = %v", TypeOf(e1))
	}
	if Obj(e3) != 3 {
		t.Errorf("obj(e3) = %v, want o3", Obj(e3))
	}
	if Obj(e6) != 2 {
		t.Errorf("obj(e6) = %v, want o2", Obj(e6))
	}
	if TypeOf(e6) != Modify("stock", "quantity") {
		t.Errorf("type(e6) = %v", TypeOf(e6))
	}
	if TypeOf(e7) != Delete("stock") {
		t.Errorf("type(e7) = %v", TypeOf(e7))
	}
	if Timestamp(e3) != 3 || Timestamp(e6) != 6 || Timestamp(e7) != 7 {
		t.Error("timestamps do not match Figure 3")
	}
	if EventOnClass(e1) != "stock" || EventOnClass(e3) != "order" {
		t.Error("event-on-class mismatch")
	}
}

func TestAppendRejectsNonMonotone(t *testing.T) {
	b := NewBase()
	if _, err := b.Append(Create("stock"), 1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(Create("stock"), 2, 5); err == nil {
		t.Fatal("equal time stamp accepted")
	}
	if _, err := b.Append(Create("stock"), 2, 4); err == nil {
		t.Fatal("decreasing time stamp accepted")
	}
}

// An invalid type is refused whatever the base appended before it: on
// a new base, whose remembered type is the zero Type, the zero Type
// included; right after a valid append of the same class; and after
// Reset. A refused append leaves the base as it was.
func TestAppendRejectsInvalidType(t *testing.T) {
	invalid := []Type{
		{},
		{Op: OpModify, Class: "stock"},
		{Op: OpCreate, Class: "stock", Attr: "quantity"},
		{Op: OpModify, Attr: "quantity"},
	}
	refuses := func(b *Base, when string) {
		t.Helper()
		n := b.Len()
		for _, ty := range invalid {
			if _, err := b.AppendTID(ty, 1, 100); err == nil {
				t.Fatalf("%s: %#v accepted", when, ty)
			}
		}
		if b.Len() != n {
			t.Fatalf("%s: refused appends left %d occurrences, want %d", when, b.Len(), n)
		}
	}
	b := NewBase()
	refuses(b, "new base")
	for i, ty := range []Type{Modify("stock", "quantity"), Create("stock")} {
		if _, err := b.Append(ty, 1, clock.Time(1+i)); err != nil {
			t.Fatal(err)
		}
		refuses(b, "after "+ty.String())
	}
	b.Reset()
	refuses(b, "after Reset")
}

// The id AppendTID returns is the registry's id of the type appended,
// whether the type repeats the previous append's or not: over random
// runs drawn from a small vocabulary, across segment roll-overs,
// Rewind, Reset and compaction, and while a second base of the same
// registry registers types of its own in between.
func TestAppendTIDMatchesRegistry(t *testing.T) {
	tys := []Type{Modify("card", "spent"), Modify("card", "limit"), Create("card"), External("declined")}
	for _, seg := range []int{1, 3, 256} {
		for seed := int64(1); seed <= 10; seed++ {
			r := rand.New(rand.NewSource(seed))
			reg := new(Registry)
			b, other := reg.NewBase(seg), reg.NewBase(seg)
			b.Savepoint()
			ts, ots, ty := clock.Time(0), clock.Time(0), tys[0]
			for step := 0; step < 400; step++ {
				if r.Intn(3) == 0 {
					ty = tys[r.Intn(len(tys))]
				}
				ts++
				tid, err := b.AppendTID(ty, types.OID(1+r.Intn(4)), ts)
				if err != nil {
					t.Fatal(err)
				}
				if want := reg.Intern(ty); tid != want {
					t.Fatalf("segment %d seed %d step %d: %v appended as id %d, registry id %d",
						seg, seed, step, ty, tid, want)
				}
				switch r.Intn(20) {
				case 0:
					b.Rewind()
				case 1:
					b.Savepoint()
				case 2:
					b.CompactBelow(ts - clock.Time(r.Intn(8)))
					b.Savepoint()
				case 3:
					b.Reset()
					b.Savepoint()
					ts = 0
				case 4:
					ots++
					if _, err := other.AppendTID(External(fmt.Sprintf("s%d", step)), 1, ots); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func TestLastOfWindows(t *testing.T) {
	b := figure3(t)
	cs := Create("stock")
	if got := b.LastOf(cs, clock.Never, 7); got != 2 {
		t.Errorf("LastOf over all = %d, want 2", got)
	}
	if got := b.LastOf(cs, clock.Never, 1); got != 1 {
		t.Errorf("LastOf upTo=1 = %d, want 1", got)
	}
	if got := b.LastOf(cs, 2, 7); got != clock.Never {
		t.Errorf("LastOf since=2 = %d, want Never", got)
	}
	if got := b.LastOf(Create("missing"), clock.Never, 7); got != clock.Never {
		t.Error("LastOf of unknown type should be Never")
	}
	mq := Modify("stock", "quantity")
	if got := b.LastOfObj(mq, 1, clock.Never, 7); got != 5 {
		t.Errorf("LastOfObj(o1) = %d, want 5", got)
	}
	if got := b.LastOfObj(mq, 3, clock.Never, 7); got != clock.Never {
		t.Error("LastOfObj(o3) should be Never")
	}
}

func TestLatestLeafCache(t *testing.T) {
	b := figure3(t)
	if b.Latest(Create("stock")) != 2 {
		t.Error("leaf cache wrong for create(stock)")
	}
	if b.Latest(Delete("stock")) != 7 {
		t.Error("leaf cache wrong for delete(stock)")
	}
	if b.Latest(Create("nothing")) != clock.Never {
		t.Error("leaf cache for unknown type should be Never")
	}
}

func TestWindowAndArrivals(t *testing.T) {
	b := figure3(t)
	w := b.Window(2, 5)
	if len(w) != 3 || w[0].EID != 3 || w[2].EID != 5 {
		t.Fatalf("Window(2,5] = %v", w)
	}
	ar := b.Arrivals(2, 5)
	if len(ar) != 3 || ar[0] != 3 || ar[2] != 5 {
		t.Fatalf("Arrivals = %v", ar)
	}
	if !b.Empty(7, 10) {
		t.Error("window after the last event should be empty")
	}
	if b.Empty(6, 7) {
		t.Error("window (6,7] holds e7")
	}
}

func TestOIDs(t *testing.T) {
	b := figure3(t)
	oids := b.OIDs(clock.Never, 7)
	if len(oids) != 3 || oids[0] != 1 || oids[1] != 2 || oids[2] != 3 {
		t.Fatalf("OIDs = %v", oids)
	}
	// Window (4,7]: only o1 and o2 are touched.
	oids = b.OIDs(4, 7)
	if len(oids) != 2 || oids[0] != 1 || oids[1] != 2 {
		t.Fatalf("OIDs(4,7] = %v", oids)
	}
	// Typed domain.
	oids = b.OIDsOfTypes([]Type{Create("order"), Create("notFilledOrder")}, clock.Never, 7)
	if len(oids) != 1 || oids[0] != 3 {
		t.Fatalf("OIDsOfTypes = %v", oids)
	}
}

func TestOccurrencesOf(t *testing.T) {
	b := figure3(t)
	mq := Modify("stock", "quantity")
	occs := b.OccurrencesOf(mq, clock.Never, 7)
	if len(occs) != 2 || occs[0].OID != 1 || occs[1].OID != 2 {
		t.Fatalf("OccurrencesOf = %v", occs)
	}
	occs = b.OccurrencesOfObj(mq, 2, clock.Never, 7)
	if len(occs) != 1 || occs[0].EID != 6 {
		t.Fatalf("OccurrencesOfObj = %v", occs)
	}
	if occs := b.OccurrencesOf(mq, 6, 7); len(occs) != 0 {
		t.Fatalf("window (6,7] should hold no modify, got %v", occs)
	}
}

func TestTypeParseAndString(t *testing.T) {
	cases := []struct {
		ty   Type
		want string
	}{
		{Create("stock"), "create(stock)"},
		{Modify("stock", "quantity"), "modify(stock.quantity)"},
		{T(OpGeneralize, "order"), "generalize(order)"},
		{T(OpSelect, "show"), "select(show)"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	for _, name := range []string{"create", "delete", "modify", "generalize", "specialize", "select"} {
		op, err := ParseOp(name)
		if err != nil {
			t.Errorf("ParseOp(%q): %v", name, err)
		}
		if op.String() != name {
			t.Errorf("round trip %q -> %q", name, op)
		}
	}
	if _, err := ParseOp("explode"); err == nil {
		t.Error("ParseOp accepted an unknown operation")
	}
}

// TestInternerGauges pins the interner-observability satellite: the
// distinct-OID and interned-type gauges track exactly the interners'
// sizes and — per the retention contract documented on Base — are not
// shrunk by compaction.
func TestInternerGauges(t *testing.T) {
	for _, layout := range []struct {
		name string
		mk   func() *Base
	}{
		{"columnar", func() *Base { return NewBaseSize(2) }},
	} {
		t.Run(layout.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			b := layout.mk()
			b.SetMetrics(NewBaseMetrics(reg))
			rows := []struct {
				ty  Type
				oid types.OID
			}{
				{Create("stock"), 1},
				{Create("stock"), 2},
				{Modify("stock", "quantity"), 1}, // repeat OID: no growth
				{Create("order"), 3},
				{Create("order"), 3}, // repeat both: no growth
			}
			for i, r := range rows {
				if _, err := b.Append(r.ty, r.oid, clock.Time(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if got := b.DistinctOIDs(); got != 3 {
				t.Fatalf("DistinctOIDs = %d, want 3", got)
			}
			if got := len(b.reg.types()); got != 3 {
				t.Fatalf("registered types = %d, want 3", got)
			}
			s := reg.Snapshot()
			if got := s.Gauges["chimera_eb_distinct_oids"]; got != 3 {
				t.Fatalf("chimera_eb_distinct_oids = %d, want 3", got)
			}
			if got := s.Gauges["chimera_eb_interned_types"]; got != 3 {
				t.Fatalf("chimera_eb_interned_types = %d, want 3", got)
			}
			// Registering ahead of use (compiled consumers) is idempotent
			// for seen types; the gauge reports the registry's size at the
			// next append of a type new to the base.
			if b.reg.Intern(Create("stock")) != b.reg.Intern(Create("stock")) {
				t.Fatal("Intern not idempotent")
			}
			b.reg.Intern(Delete("stock"))
			if _, err := b.Append(Delete("stock"), 2, clock.Time(len(rows)+1)); err != nil {
				t.Fatal(err)
			}
			if got := reg.Snapshot().Gauges["chimera_eb_interned_types"]; got != 4 {
				t.Fatalf("gauge after a new type = %d, want 4", got)
			}
			// Compaction retires occurrences but never interner entries.
			b.CompactBelow(4)
			if b.Retired() == 0 {
				t.Fatal("compaction retired nothing")
			}
			if b.DistinctOIDs() != 3 || len(b.reg.types()) != 4 {
				t.Fatal("compaction shrank an interner")
			}
			s = reg.Snapshot()
			if s.Gauges["chimera_eb_distinct_oids"] != 3 || s.Gauges["chimera_eb_interned_types"] != 4 {
				t.Fatal("compaction moved an interner gauge")
			}
		})
	}
}

// ParseOp maps an operation name to its Op.
func ParseOp(name string) (Op, error) {
	for i, n := range opNames {
		if n == name {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("event: unknown operation %q", name)
}

// TestRegistryLookupsRaceRegistrations registers a vocabulary from four
// goroutines in four orders while four more look up the types already
// registered, resolving each id back to its type: every type ends with
// one id, the ids are dense, and a lookup never sees a type under
// another's id (under -race, never a torn table). A lookup of a known
// type takes no lock — it completes while the registry's mutex is held —
// and allocates nothing.
func TestRegistryLookupsRaceRegistrations(t *testing.T) {
	var vocab []Type
	for c := 0; c < 40; c++ {
		class := fmt.Sprintf("c%02d", c)
		vocab = append(vocab, Create(class), Delete(class), Modify(class, "v"))
	}
	reg := new(Registry)
	ids := make([][]int32, 4)
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for w := range ids {
		writers.Add(1)
		go func() {
			defer writers.Done()
			ids[w] = make([]int32, len(vocab))
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(vocab)) {
				ids[w][i] = reg.Intern(vocab[i])
			}
		}()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				ty := vocab[(k+w)%len(vocab)]
				if id, ok := reg.lookup(ty); ok && reg.types()[id] != ty {
					t.Errorf("%v looked up as id %d, which names %v", ty, id, reg.types()[id])
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if got := len(reg.types()); got != len(vocab) {
		t.Fatalf("%d types registered, want %d", got, len(vocab))
	}
	for i, ty := range vocab {
		for w := range ids {
			if ids[w][i] != ids[0][i] || reg.types()[ids[w][i]] != ty {
				t.Fatalf("%v: writer %d got id %d, writer 0 id %d", ty, w, ids[w][i], ids[0][i])
			}
		}
	}

	reg.mu.Lock()
	looked := make(chan int32)
	go func() { looked <- reg.Intern(vocab[7]) }()
	select {
	case id := <-looked:
		if id != ids[0][7] {
			t.Fatalf("lookup under the held mutex: id %d, want %d", id, ids[0][7])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lookup of a known type waited for the registry's mutex")
	}
	reg.mu.Unlock()
	if a := testing.AllocsPerRun(100, func() { reg.Intern(vocab[11]) }); a != 0 {
		t.Fatalf("a lookup of a known type allocates %v times", a)
	}
}

var appendedTID int32

// BenchmarkAppend appends blocks of 256 occurrences over 32 objects,
// retiring all but the last four blocks at each block's end, as a
// stream with a retention window does. "repeated" appends one type
// throughout, the shape of a stream of updates to one attribute, and
// resolves it by comparison with the previous append's; "mix96" rotates
// through 96 types, so every append looks its type up in the registry.
func BenchmarkAppend(b *testing.B) {
	mix := make([]Type, 96)
	for i := range mix {
		mix[i] = Modify("card", fmt.Sprintf("f%d", i))
	}
	for _, bc := range []struct {
		name string
		tys  []Type
	}{{"repeated", mix[:1]}, {"mix96", mix}} {
		b.Run(bc.name, func(b *testing.B) {
			base := NewBase()
			at := clock.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at++
				tid, err := base.AppendTID(bc.tys[i%len(bc.tys)], types.OID(1+i%32), at)
				if err != nil {
					b.Fatal(err)
				}
				appendedTID = tid
				if i%256 == 255 {
					base.CompactBelow(at - 4*256)
				}
			}
		})
	}
}
