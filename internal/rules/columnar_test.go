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
	b := event.NewBase()
	c := clock.New()
	s := NewSupport(b, Options{})
	s.BeginTransaction(c.Now())
	vocab := []event.Type{createStock, modStockQty, modShowQty, event.Delete("stock")}
	// Never-triggering non-monotone rules: A ∧ ¬A is inactive at every
	// instant, so the rules stay undecided through the whole scan and
	// every arrival exercises the mention test and probe bookkeeping.
	for i, ty := range vocab {
		e := calculus.Conj(calculus.P(ty), calculus.Neg(calculus.P(ty)))
		if err := s.Define(Def{Name: fmt.Sprintf("r%d", i), Event: e}); err != nil {
			t.Fatal(err)
		}
	}
	origin := c.Now()
	for i := 0; i < 600; i++ { // spans 3 segments at the default size
		if _, err := b.Append(vocab[i%len(vocab)], types.OID(i%5+1), c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	now := c.Tick()
	rewind := func() {
		s.line.sync()
		for r := range s.line.marks {
			m := &s.line.marks[r]
			m.lastProbe, m.pending = origin, false
			s.line.arrive(int32(r)) // back on the worklist
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

// TestCheckAssignsNoTypeIDs pins the interner contract WAL records and
// segment frames rest on: once NewSession has interned the rule set's
// vocabulary into a transaction's base, resolving the shared plan's
// leaves (PlanEval.Bind) and full checks assign no further type id, and
// the ids they use are the ones NewSession assigned, in vocabulary order.
func TestCheckAssignsNoTypeIDs(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	s := NewSupport(event.NewBase(), Options{})
	for i := 0; i < 40; i++ {
		if err := s.Define(Def{Name: fmt.Sprintf("r%02d", i), Event: calculus.GenExpr(r, gen), Priority: i % 5}); err != nil {
			t.Fatal(err)
		}
	}
	for txn := 0; txn < 3; txn++ {
		b, c := event.NewBaseSize(4), clock.New()
		sess := s.NewSession(b, c.Now())
		for i, ty := range s.vocab {
			if tid, ok := b.TypeID(ty); !ok || int(tid) != i {
				t.Fatalf("vocabulary type %d (%v) has id %d, %v", i, ty, tid, ok)
			}
		}
		for block := 0; block < 6; block++ {
			var occs []event.Occurrence
			for i := 0; i < 5; i++ {
				// Only vocabulary types: an append of a new type would
				// rightly intern it.
				occ, err := b.Append(s.vocab[r.Intn(len(s.vocab))], types.OID(1+r.Intn(3)), c.Tick())
				if err != nil {
					t.Fatal(err)
				}
				occs = append(occs, occ)
			}
			sess.NotifyArrivals(tidsOf(b, occs))
			for _, name := range sess.CheckTriggered(c.Now()) {
				if _, err := sess.Consider(name, c.Tick()); err != nil {
					t.Fatal(err)
				}
			}
			if got := b.InternedTypes(); got != len(s.vocab) {
				t.Fatalf("txn %d block %d: %d types interned, the vocabulary has %d",
					txn, block, got, len(s.vocab))
			}
		}
		sess.Release()
	}
}
