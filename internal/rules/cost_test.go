package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// The work the Trigger Support does per event is deterministic: a
// seeded catalogue, a seeded stream, a logical clock and blocks cut
// every fixed number of events fix every count. These gates pin the
// counts exactly, so a change that moves one says so, and why.

// costClass is class c of the cost catalogues; a primitive is create(k),
// modify(k.v) or modify(k.w).
func costClass(c int) string { return fmt.Sprintf("k%02d", c) }

func costPrim(c, p int) event.Type {
	switch p {
	case 0:
		return event.Create(costClass(c))
	case 1:
		return event.Modify(costClass(c), "v")
	}
	return event.Modify(costClass(c), "w")
}

// TestCost_StreamRules runs the shape of the stream_rules workload in
// small: 300 rules over 8 classes, an even mix of `A + -B`, `A < (B +=
// C)` (B and C on one class) and `(A + B) , C`, drawn as the benchmark's
// catalogue draws them; 4 096 events with a uniform class and object (8
// per class), 5 % creations, 60 % modify(v) and 35 % modify(w); a check
// every 16 events on a Session, each triggered rule considered at the
// check instant. Per event: probes of the arrival walk (line.visits), ts
// evaluations and triggerings.
func TestCost_StreamRules(t *testing.T) {
	const classes, nrules, objects, events, block = 8, 300, 8, 4096, 16
	r := rand.New(rand.NewSource(19960325))
	prim := func() calculus.Expr { return calculus.P(costPrim(r.Intn(classes), r.Intn(3))) }
	defs := make([]Def, nrules)
	for i := range defs {
		var e calculus.Expr
		switch i % 3 {
		case 0:
			e = calculus.Conj(prim(), calculus.Neg(prim()))
		case 1:
			c, p := r.Intn(classes), r.Intn(3)
			e = calculus.Prec(prim(), calculus.ConjI(calculus.P(costPrim(c, p)), calculus.P(costPrim(c, (p+1+r.Intn(2))%3))))
		default:
			e = calculus.Disj(calculus.Conj(prim(), prim()), prim())
		}
		defs[i] = Def{Name: fmt.Sprintf("r%04d", i), Event: e, Priority: i % 7}
	}
	s := supportWith(t, defs)
	b, c := event.NewBase(), clock.New()
	sess := s.NewSession(b, c.Now())
	defer sess.Release()
	in := rand.New(rand.NewSource(7))
	tids := make([]int32, 0, block)
	for i := 0; i < events; i++ {
		cl, p := in.Intn(classes), 2
		if x := in.Intn(100); x < 5 {
			p = 0
		} else if x < 65 {
			p = 1
		}
		tid, err := b.AppendTID(costPrim(cl, p), types.OID(1+cl*objects+in.Intn(objects)), c.Tick())
		if err != nil {
			t.Fatal(err)
		}
		if tids = append(tids, tid); len(tids) < block {
			continue
		}
		sess.NotifyArrivals(tids)
		tids = tids[:0]
		sess.CheckTriggered(c.Now())
		for {
			name, ok := sess.Pick(nil)
			if !ok {
				break
			}
			if _, err := sess.Consider(name, c.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := sess.Stats()
	got := [3]int64{sess.visits, st.TsEvaluations, st.Triggerings}
	want := [3]int64{19549, 383123, 18739}
	if got != want {
		t.Errorf("per event over %d events: %.3f visits, %.3f ts evaluations, %.3f triggerings (%v); want %.3f, %.3f, %.3f (%v)",
			events, float64(got[0])/events, float64(got[1])/events, float64(got[2])/events, got,
			float64(want[0])/events, float64(want[1])/events, float64(want[2])/events, want)
	}
}
