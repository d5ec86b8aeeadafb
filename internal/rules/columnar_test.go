package rules

import (
	"fmt"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/event"
	"chimera/internal/types"
)

// TestColumnarSteadyStateAllocs is TestCheckTriggeredSteadyStateAllocs
// on a base of two-occurrence segments, the window spread over many of
// them.
func TestColumnarSteadyStateAllocs(t *testing.T) {
	t.Run("columnar/shared-filtered", func(t *testing.T) {
		quietCheckAllocatesNothing(t, event.NewBaseSize(2))
	})
}

// TestColumnarProbeScanSteadyStateAllocs pins the zero-allocation
// property of the batched columnar scan itself: with every rule's probe
// cursor rewound to the window start, CheckTriggered re-scans hundreds
// of arrivals across several segments through ChunkCols, NoteArrivalTID
// and the mention bitsets — and allocates nothing once warm. (The quiet
// boundary check above never enters the scan loop; this rewind drives
// it at full depth every run.)
func TestColumnarProbeScanSteadyStateAllocs(t *testing.T) {
	vocab := []event.Type{createStock, modStockQty, modShowQty, event.Delete("stock")}
	// Never-triggering non-monotone rules: A ∧ ¬A is inactive at every
	// instant, so the rules stay undecided through the whole scan and
	// every arrival exercises the mention test and probe bookkeeping.
	defs := make([]Def, len(vocab))
	for i, ty := range vocab {
		e := calculus.Conj(calculus.P(ty), calculus.Neg(calculus.P(ty)))
		defs[i] = Def{Name: fmt.Sprintf("r%d", i), Event: e}
	}
	s, b, c := newSupport(t, defs...)
	origin := c.Now()
	for i := 0; i < 600; i++ { // spans 3 segments at the default size
		if _, err := b.Append(vocab[i%len(vocab)], types.OID(i%5+1), c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	now := c.Tick()
	rewind := func() {
		s.sync()
		for r := range s.marks {
			m := &s.marks[r]
			m.lastProbe, m.pending = origin, false
			s.arrive(int32(r)) // back on the worklist
		}
	}
	for i := 0; i < 3; i++ {
		rewind()
		s.CheckTriggered(now)
	}
	before := s.Stats().TsEvaluations
	allocs := testing.AllocsPerRun(20, func() {
		rewind()
		s.CheckTriggered(now)
	})
	if s.Stats().TsEvaluations == before {
		t.Fatal("the rewound checks evaluated nothing")
	}
	if allocs != 0 {
		t.Errorf("columnar probe scan allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
