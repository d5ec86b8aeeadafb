package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// Sessions of one Support run side by side, each driven by its own
// goroutine over its own Event Base, all bases opened from one shared
// type registry, as the engine runs its transaction lines; readers
// inspect the Support throughout, and rule DDL runs beside them. Run
// with -race. Every worker opens and releases Sessions, announcing
// arrivals, checking and considering what fired. The DDL goroutine's
// Define and Drop must fail while a Session is open — its own, opened for
// the purpose — and succeed between Sessions, which it waits for by
// holding gate exclusively (the workers hold it shared from before
// NewSession to after Release). At the end the Support's Checks are the
// sum of every Session's.
func TestSupportConcurrentAccess(t *testing.T) {
	const workers, txns, blocks = 4, 20, 5
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	r := rand.New(rand.NewSource(5))
	defs := make([]Def, 64)
	for i := range defs {
		defs[i] = Def{Name: fmt.Sprintf("base%02d", i), Event: calculus.GenExpr(r, gen), Priority: i % 5}
	}
	s := supportWith(t, defs)
	reg := new(event.Registry)

	var (
		gate    sync.RWMutex
		checks  atomic.Int64
		working sync.WaitGroup
		others  sync.WaitGroup
	)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		working.Add(1)
		go func(w int) {
			defer working.Done()
			wr := rand.New(rand.NewSource(int64(11 + w)))
			txn := func() {
				b, c := reg.NewBase(1+wr.Intn(8)), clock.New()
				gate.RLock()
				defer gate.RUnlock()
				sess := s.NewSession(b, c.Now())
				defer sess.Release()
				defer func() { checks.Add(sess.Stats().Checks) }()
				for block := 0; block < blocks; block++ {
					var tids []int32
					for i := 1 + wr.Intn(4); i > 0; i-- {
						tid, err := b.AppendTID(vocab[wr.Intn(len(vocab))], types.OID(1+wr.Intn(3)), c.Tick())
						if err != nil {
							t.Error(err)
							return
						}
						tids = append(tids, tid)
					}
					sess.NotifyArrivals(tids)
					for _, name := range sess.CheckTriggered(c.Now()) {
						if wr.Intn(2) == 0 {
							if _, err := sess.Consider(name, c.Tick()); err != nil {
								t.Error(err)
							}
						}
					}
				}
			}
			for i := 0; i < txns; i++ {
				txn()
			}
		}(w)
	}

	// Readers: every shared-lock path.
	for g := 0; g < 3; g++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s.Rule("base00")
				s.Rules()
				s.Stats()
				s.Plan()
				s.HasDeferred()
			}
		}()
	}

	// DDL: refused beside an open Session, accepted between Sessions.
	var refused, accepted int
	others.Add(1)
	go func() {
		defer others.Done()
		gr := rand.New(rand.NewSource(100))
		for i := 0; ; i++ {
			name := fmt.Sprintf("churn%d", i)
			d := Def{Name: name, Event: calculus.GenExpr(gr, gen)}
			own := s.NewSession(reg.NewBase(0), 0)
			if s.Define(d) == nil || s.Drop("base00") == nil {
				t.Error("Define or Drop succeeded while a Session was open")
			}
			own.Release()
			refused++
			gate.Lock()
			if err := s.Define(d); err != nil {
				t.Errorf("Define between Sessions: %v", err)
			}
			if err := s.Drop(name); err != nil {
				t.Errorf("Drop between Sessions: %v", err)
			}
			gate.Unlock()
			accepted++
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	working.Wait()
	close(done)
	others.Wait()
	if refused == 0 || accepted == 0 {
		t.Errorf("DDL refused %d times and was accepted %d times, want both", refused, accepted)
	}
	if got, want := s.Stats().Checks, checks.Load(); got != want || want != workers*txns*blocks {
		t.Errorf("Checks = %d, the Sessions counted %d, want %d", got, want, workers*txns*blocks)
	}
}

// Rule churn over many types cannot grow the listening tables: once
// every rule is dropped, the registry's match-all lists and its arrival
// table hold nothing, however many types the dropped rules listened to
// and however many arrivals reached them.
func TestDropPrunesListeningIndex(t *testing.T) {
	s := NewSupport(nil, Options{})
	b, c := s.testBase(0), clock.New()
	for i := 0; i < 50; i++ {
		ty := event.Modify("stock", fmt.Sprintf("attr%d", i))
		name := fmt.Sprintf("r%d", i)
		if err := s.Define(Def{Name: name, Event: calculus.P(ty)}); err != nil {
			t.Fatal(err)
		}
		sess := s.NewSession(b, c.Now())
		log(t, sess, b, c, ty, 1)
		sess.CheckTriggered(c.Now())
		sess.Release()
		if err := s.Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	sess := s.NewSession(b, c.Now())
	log(t, sess, b, c, createStock, 1)
	sess.Release()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n := len(s.matchAll) + len(s.probeAll); n != 0 {
		t.Errorf("the registry derives %d stale entries after dropping every rule", n)
	}
	if l := s.listen; len(l.ranks) != 0 || len(l.off) > 1 {
		t.Errorf("the arrival table holds %d ranks over %d type ids after dropping every rule", len(l.ranks), len(l.off)-1)
	}
}
