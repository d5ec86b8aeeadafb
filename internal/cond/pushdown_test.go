package cond

import (
	"errors"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/object"
	"chimera/internal/schema"
	"chimera/internal/types"
)

// countingView counts the objects a condition examines: every Get, and
// every object a Select returns.
type countingView struct {
	StoreView
	examined int
}

func (v *countingView) Get(oid types.OID) (*object.Object, bool) {
	v.examined++
	return v.StoreView.Get(oid)
}

func (v *countingView) Select(class string) ([]types.OID, error) {
	oids, err := v.StoreView.Select(class)
	v.examined += len(oids)
	return oids, err
}

// overlimit is the idiomatic shape: a class atom ahead of the event
// formula that names the few objects the window touched.
var overlimit = compile(Formula{Atoms: []Atom{
	Class{Class: "card", Var: "C"},
	Occurred{Event: calculus.P(event.Modify("card", "spent")), Var: "C"},
	Compare{L: Attr{Var: "C", Attr: "spent"}, Op: CmpGt, R: Attr{Var: "C", Attr: "limit"}},
}})

// cards builds a store of n cards whose window modified the first eight,
// three of them past their limit.
func cards(t *testing.T, n int) (*Ctx, *countingView) { return cardsTouched(t, n, 8) }

// cardsTouched is cards with a window that modified the first touched cards,
// one in three of them past its limit.
func cardsTouched(t *testing.T, n, touched int) (*Ctx, *countingView) {
	t.Helper()
	s := schema.New()
	if _, err := s.Define("card",
		schema.Attribute{Name: "spent", Kind: types.KindInt},
		schema.Attribute{Name: "limit", Kind: types.KindInt}); err != nil {
		t.Fatal(err)
	}
	st := object.NewStore(s)
	ln := st.BeginLine(object.LineOptions{Solo: true})
	defer ln.Commit()
	b := event.NewBase()
	for i := 0; i < n; i++ {
		spent := int64(10)
		if i%3 == 0 {
			spent = 1000
		}
		oid, err := ln.Create("card", map[string]types.Value{"spent": types.Int(spent), "limit": types.Int(100)})
		if err != nil {
			t.Fatal(err)
		}
		if i < touched {
			if _, err := b.Append(event.Modify("card", "spent"), oid, clock.Time(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	view := &countingView{StoreView: st}
	return &Ctx{Store: view, Base: b, At: clock.Time(touched + 100)}, view
}

// A consideration costs what its window affected, whatever the size of
// the class extension: the same objects examined, the same allocations.
func TestConsiderationCostIndependentOfExtension(t *testing.T) {
	type cost struct {
		bindings, examined int
		allocs             float64
	}
	measure := func(n int) cost {
		ctx, view := cards(t, n)
		eval := func() int {
			out, err := overlimit.Eval(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return len(out)
		}
		eval() // grow the scratch buffers
		view.examined = 0
		c := cost{bindings: eval(), examined: view.examined}
		c.allocs = testing.AllocsPerRun(50, func() { eval() })
		return c
	}
	small, large := measure(64), measure(8192)
	t.Logf("64 cards: %+v; 8192 cards: %+v", small, large)
	if small.bindings != 3 || small != large {
		t.Fatalf("64 cards: %+v; 8192 cards: %+v; want 3 bindings and equal cost", small, large)
	}
	// Eight candidates looked up by the class atom, then two attribute
	// reads for each: none of the other cards is touched.
	if small.examined != 8+2*8 {
		t.Fatalf("examined %d objects, want 24", small.examined)
	}
	if small.allocs != 0 {
		t.Fatalf("a consideration allocates %v times, want 0", small.allocs)
	}
	// Nor does the cost of the rows grow with the objects the window
	// binds: they live in the Ctx's buffers.
	binds := Formula{Atoms: overlimit.Atoms[:2]}
	for _, touched := range []int{8, 512} {
		ctx, _ := cardsTouched(t, 1024, touched)
		eval := func() {
			if out, err := binds.Eval(ctx); err != nil || len(out) != touched {
				t.Fatalf("%s over %d modified cards = %d rows, %v", binds, touched, len(out), err)
			}
		}
		eval()
		if n := testing.AllocsPerRun(50, eval); n != 0 {
			t.Errorf("binding %d cards: %v allocs, want 0", touched, n)
		}
	}
}

// Through a latched line the pushed-down class atom takes no class latch
// — it never reads the extension — while each object it keeps is pinned
// by the shared object latch of Line.Get. A class atom nothing bounds
// still walks, and latches, the class.
func TestPushedDownClassAtomTakesNoClassLatch(t *testing.T) {
	ctx, view := cards(t, 16)
	st := view.StoreView.(*object.Store)
	reader := st.BeginLine(object.LineOptions{}) // Wait 0: a conflict fails at once
	defer reader.Rollback()
	ctx.Store = reader
	out, err := overlimit.Eval(ctx)
	if err != nil || len(out) != 3 {
		t.Fatalf("bindings = %v, %v", out, err)
	}

	writer := st.BeginLine(object.LineOptions{})
	defer writer.Rollback()
	vals := map[string]types.Value{"spent": types.Int(0), "limit": types.Int(1)}
	if _, err := writer.Create("card", vals); err != nil {
		t.Fatalf("create beside a pushed-down consideration: %v", err)
	}
	if err := writer.Modify(out[0][ctx.Slot("C")].AsOID(), "limit", types.Int(0)); !errors.Is(err, object.ErrConflict) {
		t.Fatalf("modify of a bound card = %v, want ErrConflict", err)
	}

	walker := st.BeginLine(object.LineOptions{})
	defer walker.Rollback()
	ctx.Store = walker
	if _, err := (Formula{Atoms: overlimit.Atoms[:1]}).Eval(ctx); !errors.Is(err, object.ErrConflict) {
		t.Fatalf("class walk beside an uncommitted insert = %v, want ErrConflict", err)
	}
}
