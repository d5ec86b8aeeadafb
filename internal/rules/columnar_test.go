package rules

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// replayLayout is replay with the Event Base layout (and segmentation)
// selectable: the columnar-vs-row differential suite drives identical
// workloads through both layouts and compares firings bit for bit.
func replayLayout(t *testing.T, o Options, defs []Def, vocab []event.Type, seed int64, blocks int, mkBase func() *event.Base, compact bool) [][]firing {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := mkBase()
	c := clock.New()
	s := NewSupport(b, o)
	s.BeginTransaction(c.Now())
	for _, d := range defs {
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	var rounds [][]firing
	for block := 0; block < blocks; block++ {
		n := 1 + r.Intn(4)
		var occs []event.Occurrence
		for i := 0; i < n; i++ {
			occ, err := b.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(3)), c.Tick())
			if err != nil {
				t.Fatal(err)
			}
			occs = append(occs, occ)
		}
		s.NotifyArrivals(occs)
		verifyIndex(t, &s.line)
		fired := s.CheckTriggered(c.Now())
		verifyIndex(t, &s.line)
		round := make([]firing, len(fired))
		for i, name := range fired {
			st, ok := s.Rule(name)
			if !ok {
				t.Fatalf("fired unknown rule %q", name)
			}
			round[i] = firing{name: name, at: st.TriggeredAt}
		}
		rounds = append(rounds, round)
		for _, name := range fired {
			if _, err := s.Consider(name, c.Tick()); err != nil {
				t.Fatal(err)
			}
			verifyIndex(t, &s.line)
		}
		if compact {
			b.CompactBelow(s.Watermark())
		}
	}
	return rounds
}

// TestColumnarMatchesRowStore is the layout differential: over random
// rule sets (negation, instance lifts, precedence, forced subexpression
// overlap) and every check-path configuration — sequential reference,
// incremental sweep, shared plan, sharded — the columnar Event Base must
// fire the identical rule set at identical activation instants as the
// row store.
func TestColumnarMatchesRowStore(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	fragGen := calculus.GenOptions{Types: vocab, MaxDepth: 2,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}

	configs := []Options{
		{}, // sequential recursive reference
		{UseFilter: true},
		{Incremental: true},
		{UseFilter: true, Incremental: true, Workers: 8}, // sharded sweep
		{SharedPlan: true},
		{UseFilter: true, Incremental: true, SharedPlan: true, Workers: 4}, // production
	}

	for trial := 0; trial < 8; trial++ {
		pool := make([]calculus.Expr, 4)
		for i := range pool {
			pool[i] = calculus.GenExpr(r, fragGen)
		}
		defs := make([]Def, 40)
		for i := range defs {
			e := calculus.GenExpr(r, gen)
			if i%2 == 0 {
				e = calculus.Disj(e, pool[r.Intn(len(pool))])
			}
			defs[i] = Def{Name: fmt.Sprintf("r%02d", i), Event: e, Priority: i % 5}
		}
		seed := r.Int63()
		for _, cfg := range configs {
			row := replayLayout(t, cfg, defs, vocab, seed, 6,
				func() *event.Base { return event.NewRowBase(event.DefaultSegmentSize) }, false)
			col := replayLayout(t, cfg, defs, vocab, seed, 6,
				func() *event.Base { return event.NewBase() }, false)
			if !reflect.DeepEqual(row, col) {
				t.Fatalf("trial %d cfg %+v: layouts diverged\nrow: %v\ncol: %v", trial, cfg, row, col)
			}
		}
	}
}

// TestColumnarCompactingMatchesRowStore runs the layout differential with
// tiny segments and per-block low-watermark compaction on both sides, so
// the columnar probe loops are exercised across segment seals and
// retirements.
func TestColumnarCompactingMatchesRowStore(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for trial := 0; trial < 6; trial++ {
		defs := make([]Def, 40)
		for i := range defs {
			defs[i] = Def{Name: fmt.Sprintf("r%02d", i), Event: calculus.GenExpr(r, gen), Priority: i % 7}
		}
		seed := r.Int63()
		cfg := Options{UseFilter: true, Incremental: true, SharedPlan: true, Workers: 8}
		row := replayLayout(t, cfg, defs, vocab, seed, 8,
			func() *event.Base { return event.NewRowBase(4) }, true)
		col := replayLayout(t, cfg, defs, vocab, seed, 8,
			func() *event.Base { return event.NewBaseSize(4) }, true)
		if !reflect.DeepEqual(row, col) {
			t.Fatalf("trial %d: compacting layouts diverged\nrow: %v\ncol: %v", trial, row, col)
		}
	}
}

// TestColumnarSteadyStateAllocs mirrors TestCheckTriggeredSteadyStateAllocs
// on an explicit layout pair: the quiet boundary check must allocate
// nothing on the columnar base and on the row-store ablation alike.
func TestColumnarSteadyStateAllocs(t *testing.T) {
	for _, layout := range []struct {
		name string
		mk   func() *event.Base
	}{
		{"columnar", func() *event.Base { return event.NewBase() }},
		{"rowstore", func() *event.Base { return event.NewRowBase(event.DefaultSegmentSize) }},
	} {
		for _, tc := range []struct {
			name string
			opts Options
		}{
			{"incremental", Options{Incremental: true}},
			{"shared", Options{SharedPlan: true}},
			{"shared-filtered", Options{SharedPlan: true, UseFilter: true}},
		} {
			t.Run(layout.name+"/"+tc.name, func(t *testing.T) {
				b := layout.mk()
				c := clock.New()
				s := NewSupport(b, tc.opts)
				s.BeginTransaction(c.Now())
				mono := calculus.Conj(calculus.P(createStock), calculus.P(modShowQty))
				nonMono := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(createStock)))
				for i := 0; i < 6; i++ {
					e := mono
					if i%2 == 1 {
						e = nonMono
					}
					if err := s.Define(Def{Name: fmt.Sprintf("r%d", i), Event: e}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 10; i++ {
					if _, err := b.Append(createStock, 1, c.Tick()); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					s.CheckTriggered(c.Tick())
				}
				allocs := testing.AllocsPerRun(50, func() {
					s.CheckTriggered(c.Tick())
				})
				if allocs != 0 {
					t.Errorf("steady-state CheckTriggered allocates %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
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
	s := NewSupport(b, Options{UseFilter: true, SharedPlan: true})
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
		for _, st := range s.ordered {
			st.lastProbe = origin
			st.pending = true
		}
	}
	for i := 0; i < 3; i++ {
		rewind()
		s.CheckTriggered(now)
	}
	allocs := testing.AllocsPerRun(20, func() {
		rewind()
		s.CheckTriggered(now)
	})
	if allocs != 0 {
		t.Errorf("columnar probe scan allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestCheckAssignsNoTypeIDs pins the interner contract WAL records and
// segment frames rest on: once Rebind has interned the rule set's
// vocabulary into a transaction's base, resolving the shared plan's
// leaves (PlanEval.Bind) and full checks assign no further type id, and
// the ids they use are the ones Rebind assigned, in vocabulary order.
func TestCheckAssignsNoTypeIDs(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for _, workers := range []int{1, 4} {
		s := NewSupport(event.NewBase(), Options{UseFilter: true, Incremental: true, SharedPlan: true, Workers: workers})
		for i := 0; i < 40; i++ {
			if err := s.Define(Def{Name: fmt.Sprintf("r%02d", i), Event: calculus.GenExpr(r, gen), Priority: i % 5}); err != nil {
				t.Fatal(err)
			}
		}
		for txn := 0; txn < 3; txn++ {
			b, c := event.NewBaseSize(4), clock.New()
			s.Rebind(b)
			s.BeginTransaction(c.Now())
			for i, ty := range s.vocab {
				if tid, ok := b.TypeID(ty); !ok || int(tid) != i {
					t.Fatalf("workers=%d: vocabulary type %d (%v) has id %d, %v", workers, i, ty, tid, ok)
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
				s.NotifyArrivals(occs)
				for _, name := range s.CheckTriggered(c.Now()) {
					if _, err := s.Consider(name, c.Tick()); err != nil {
						t.Fatal(err)
					}
				}
				if got := b.InternedTypes(); got != len(s.vocab) {
					t.Fatalf("workers=%d txn %d block %d: %d types interned, the vocabulary has %d",
						workers, txn, block, got, len(s.vocab))
				}
			}
		}
	}
}
