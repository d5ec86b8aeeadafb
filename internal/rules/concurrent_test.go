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

// Concurrent Define/Drop/NotifyArrivals/CheckTriggered/read-path
// interleavings must be race-free (run with -race). One driver goroutine
// owns the Event Base — appends are the caller's to serialize, per the
// lock hierarchy — while churn and reader goroutines hammer the Support
// from the side.
func TestSupportConcurrentAccess(t *testing.T) {
	vocab := calculus.DefaultVocabulary()
	b := event.NewBase()
	c := clock.New()
	s := NewSupport(b, Options{})
	s.BeginTransaction(c.Now())

	r := rand.New(rand.NewSource(5))
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for i := 0; i < 64; i++ {
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
	s, _, _ := newSupport(t)
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
