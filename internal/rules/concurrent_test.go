package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// firing is one rule's observed triggering: the differential tests
// compare both the fired set and the activation instants.
type firing struct {
	name string
	at   clock.Time
}

// replay drives one Support configuration through a deterministic
// workload (seeded by seed) and records every firing.
func replay(t *testing.T, o Options, defs []Def, vocab []event.Type, seed int64, blocks int) [][]firing {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := event.NewBase()
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
		// Consider a few triggered rules so windows restart mid-run.
		for k := 0; k < 2; k++ {
			if name, ok := s.Pick(nil); ok && r.Intn(2) == 0 {
				if _, err := s.Consider(name, c.Tick()); err != nil {
					t.Fatal(err)
				}
				verifyIndex(t, &s.line)
			}
		}
	}
	return rounds
}

// The sharded + incremental support must fire the identical rule set at
// identical activation instants as the naive sequential support, on
// random expression/history pairs. 13 trials × 40 rules = 520 pairs,
// and 40 rules exceeds ShardMinRules so the worker fan-out engages.
func TestShardedIncrementalMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}

	configs := []Options{
		{Incremental: true, Workers: 8},                  // sharded + incremental
		{UseFilter: true, Incremental: true, Workers: 8}, // plus the V(E) filter
	}

	for trial := 0; trial < 13; trial++ {
		defs := make([]Def, 40)
		for i := range defs {
			defs[i] = Def{
				Name:     fmt.Sprintf("r%02d", i),
				Event:    calculus.GenExpr(r, gen),
				Priority: i % 7,
			}
		}
		seed := r.Int63()
		ref := replay(t, Options{}, defs, vocab, seed, 6)
		for _, cfg := range configs {
			got := replay(t, cfg, defs, vocab, seed, 6)
			for i := range ref {
				if len(ref[i]) != len(got[i]) {
					t.Fatalf("trial %d cfg %+v round %d: sequential fired %v, got %v",
						trial, cfg, i, ref[i], got[i])
				}
				for j := range ref[i] {
					if ref[i][j] != got[i][j] {
						t.Fatalf("trial %d cfg %+v round %d: sequential %v vs %v",
							trial, cfg, i, ref[i], got[i])
					}
				}
			}
		}
	}
}

// Concurrent Define/Drop/NotifyArrivals/CheckTriggered/read-path
// interleavings must be race-free (run with -race). One driver goroutine
// owns the Event Base — appends are the caller's to serialize, per the
// lock hierarchy — while churn and reader goroutines hammer the Support
// from the side.
func TestSupportConcurrentAccess(t *testing.T) {
	vocab := calculus.DefaultVocabulary()
	b := event.NewBase()
	c := clock.New()
	s := NewSupport(b, Options{UseFilter: true, Incremental: true, Workers: 4})
	s.BeginTransaction(c.Now())

	// Enough stable rules that CheckTriggered batches exceed ShardMinRules
	// and the worker goroutines actually spin up under the race detector.
	r := rand.New(rand.NewSource(5))
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for i := 0; i < 2*ShardMinRules; i++ {
		d := Def{Name: fmt.Sprintf("base%02d", i), Event: calculus.GenExpr(r, gen), Priority: i % 5}
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 50
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Driver: the single goroutine allowed to mutate the Event Base.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		dr := rand.New(rand.NewSource(11))
		for i := 0; i < iters; i++ {
			occ, err := b.Append(vocab[dr.Intn(len(vocab))], types.OID(1+dr.Intn(3)), c.Tick())
			if err != nil {
				t.Error(err)
				return
			}
			s.NotifyArrivals([]event.Occurrence{occ})
			fired := s.CheckTriggered(c.Now())
			for _, name := range fired {
				if dr.Intn(2) == 0 {
					// A fired churn rule may be dropped between the check and
					// the consideration; the "no rule" error is the correct
					// answer then, not a failure.
					s.Consider(name, c.Tick())
				}
			}
		}
	}()

	// Churn: define and drop throwaway rules.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gr := rand.New(rand.NewSource(int64(100 + g)))
			i := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				name := fmt.Sprintf("churn%d_%d", g, i)
				d := Def{Name: name, Event: calculus.GenExpr(gr, gen)}
				if err := s.Define(d); err != nil {
					t.Error(err)
					return
				}
				if err := s.Drop(name); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(g)
	}

	// Readers: every shared-lock path.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s.Rule("base00")
				s.Rules()
				s.Stats()
				s.TxnStart()
				s.Triggered(nil)
				s.Pick(func(d Def) bool { return d.Coupling == Immediate })
			}
		}()
	}

	wg.Wait()
	if got := s.Stats(); got.Checks != iters {
		t.Errorf("Checks = %d, want %d", got.Checks, iters)
	}
}

// Dropping the last listener of a type must delete the byType key, so
// rule churn over many types cannot grow the index unboundedly.
func TestDropPrunesListeningIndex(t *testing.T) {
	s, _, _ := newSupport(t, Options{UseFilter: true})
	for i := 0; i < 50; i++ {
		ty := event.Modify("stock", fmt.Sprintf("attr%d", i))
		name := fmt.Sprintf("r%d", i)
		if err := s.Define(Def{Name: name, Event: calculus.P(ty)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.byType) != 0 {
		t.Errorf("byType holds %d stale entries after dropping every rule", len(s.byType))
	}
}

// The exported State copy must not leak live mutable sweep state.
func TestRuleCopyStripsSweeper(t *testing.T) {
	s, b, c := newSupport(t, Options{Incremental: true})
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	if err := s.Define(Def{Name: "r", Event: e}); err != nil {
		t.Fatal(err)
	}
	log(t, s, b, c, modShowQty, 1)
	s.CheckTriggered(c.Now()) // instantiates the sweeper
	st, ok := s.Rule("r")
	if !ok {
		t.Fatal("rule not found")
	}
	if st.sweeper != nil {
		t.Error("exported State copy aliases the live sweeper")
	}
	if st.Filter == nil {
		t.Error("exported State copy lost the (immutable) filter")
	}
}
