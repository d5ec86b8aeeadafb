package rules

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
)

func supportWith(t *testing.T, defs []Def) *Support {
	t.Helper()
	s := NewSupport(nil, Options{})
	for _, d := range defs {
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// sessionTxn opens a session of s over a fresh base and drives it
// through one transaction of the script seed draws, rendering everything
// the line decides: each check's fired rules, the marks and the
// watermark after every block, and the session's counters at the end.
func sessionTxn(t *testing.T, s *Support, seed int64) (*Session, string) {
	t.Helper()
	b, c := s.testBase(4), clock.New()
	sess := s.NewSession(b, c.Now())
	r := rand.New(rand.NewSource(seed))
	var out strings.Builder
	for block := 0; block < 12; block++ {
		sess.NotifyArrivals(tidsOf(b, scriptArrivals(t, r, b, c)))
		fmt.Fprintf(&out, "fired %v\n", sess.CheckTriggered(c.Now()))
		for k := 0; k < 2; k++ {
			if name, ok := sess.Pick(nil); ok && r.Intn(2) == 0 {
				if _, err := sess.Consider(name, c.Tick()); err != nil {
					t.Fatal(err)
				}
			}
		}
		fmt.Fprintf(&out, "marks %v watermark %d\n", sess.Marks(), sess.Watermark())
		verifyIndex(t, sess)
	}
	fmt.Fprintf(&out, "stats %+v\n", sess.Stats())
	return sess, out.String()
}

// killedTxn opens a session of s and checks blocks under a budget of
// three evaluation units until one check runs out: the session is left
// with a check cut short, as a transaction killed by its budget leaves
// its line. It reports whether the fault cut an arrival walk short.
func killedTxn(t *testing.T, s *Support, seed int64) (*Session, bool) {
	t.Helper()
	b, c := s.testBase(4), clock.New()
	sess := s.NewSession(b, c.Now())
	sess.SetBudget(calculus.NewBudget(3, time.Time{}))
	r := rand.New(rand.NewSource(seed))
	for block := 0; block < 50; block++ {
		sess.NotifyArrivals(tidsOf(b, scriptArrivals(t, r, b, c)))
		if err := calculus.CatchBudget(func() { sess.CheckTriggered(c.Now()) }); err != nil {
			return sess, sess.probe.walking
		}
	}
	t.Fatal("the budget never ran out")
	return nil, false
}

// A session recycled through the idle pool — after a clean transaction
// or after one its budget killed in the middle of a check — decides
// exactly like a fresh one: the same fired rules, marks, watermarks and
// counters, over random rule sets and transactions.
func TestRecycledSessionDecidesLikeFresh(t *testing.T) {
	midWalk := 0
	for seed := int64(1); seed <= 6; seed++ {
		defs := scriptDefs(rand.New(rand.NewSource(seed)), 30, "r")
		pooled := supportWith(t, defs)
		var prev *Session
		for txn := int64(0); txn < 6; txn++ {
			if txn%2 == 1 {
				killed, walk := killedTxn(t, pooled, seed*1000+txn)
				if killed != prev {
					t.Fatal("NewSession did not recycle the released session")
				}
				if walk {
					midWalk++
				}
				killed.Release()
			}
			sess, got := sessionTxn(t, pooled, seed*100+txn)
			if prev != nil && sess != prev {
				t.Fatal("NewSession did not recycle the released session")
			}
			sess.Release()
			prev = sess
			fresh, want := sessionTxn(t, supportWith(t, defs), seed*100+txn)
			fresh.Release()
			if got != want {
				t.Fatalf("seed %d txn %d: the recycled session decided\n%s\na fresh one\n%s", seed, txn, got, want)
			}
		}
	}
	if midWalk == 0 {
		t.Error("no budget fault cut an arrival walk short")
	}
}

// A released session keeps no reference to its transaction's Event Base
// while it waits in the idle pool: once the transaction lets go of the
// base, the garbage collector reclaims it. A finalizer observes the
// collection, since it runs only once the base is unreachable.
func TestReleasedSessionKeepsNoBase(t *testing.T) {
	s := supportWith(t, scriptDefs(rand.New(rand.NewSource(30)), 30, "r"))
	collected := make(chan struct{})
	func() {
		b, c := s.testBase(4), clock.New()
		runtime.SetFinalizer(b, func(*event.Base) { close(collected) })
		sess := s.NewSession(b, c.Now())
		r := rand.New(rand.NewSource(12))
		for block := 0; block < 12; block++ {
			sess.NotifyArrivals(tidsOf(b, scriptArrivals(t, r, b, c)))
			for _, name := range sess.CheckTriggered(c.Now()) {
				if _, err := sess.Consider(name, c.Tick()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if sess.visits == 0 {
			t.Fatal("no arrival walk probed the base: the session never held it everywhere it can")
		}
		sess.Release()
	}()
	if len(s.idle) != 1 {
		t.Fatalf("%d sessions idle, want the released one", len(s.idle))
	}
	// The Support, and with it the idle pool, stays reachable throughout.
	defer runtime.KeepAlive(s)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the idle session keeps its transaction's Event Base alive")
}

// Define and Drop between two lines empty the idle pool: the next line
// is a new session whose marks cover exactly the rules defined now.
func TestDefineDropEmptyThePool(t *testing.T) {
	s := supportWith(t, []Def{
		{Name: "a", Event: calculus.P(createStock)},
		{Name: "b", Priority: 1, Event: calculus.P(modStockQty)},
	})
	base := s.testBase(0)
	names := func(sess *Session) []string {
		var out []string
		for _, m := range sess.Marks() {
			out = append(out, m.Rule)
		}
		return out
	}
	sess := s.NewSession(base, 0)
	sess.Release()
	if err := s.Define(Def{Name: "c", Priority: 2, Event: calculus.P(modShowQty)}); err != nil {
		t.Fatal(err)
	}
	next := s.NewSession(base, 0)
	if next == sess {
		t.Fatal("the pool kept a session across Define")
	}
	if got := names(next); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("marks after Define cover %v", got)
	}
	next.Release()
	if err := s.Drop("a"); err != nil {
		t.Fatal(err)
	}
	last := s.NewSession(base, 0)
	if last == next {
		t.Fatal("the pool kept a session across Drop")
	}
	if got := names(last); !slices.Equal(got, []string{"b", "c"}) {
		t.Fatalf("marks after Drop cover %v", got)
	}
	if _, ok := last.Mark("a"); ok {
		t.Fatal("the dropped rule still has a mark")
	}
	last.Release()
}

// A line holds only its marks: a fresh NewSession allocates the same
// under 10 and under 1 000 rules, and a recycled one allocates nothing.
func TestNewSessionAllocsIndependentOfRuleCount(t *testing.T) {
	var fresh []float64
	for _, n := range []int{10, 1000} {
		s := supportWith(t, scriptDefs(rand.New(rand.NewSource(int64(n))), n, "r"))
		b := s.testBase(0)
		fresh = append(fresh, testing.AllocsPerRun(50, func() { s.NewSession(b, 0) }))
		if a := testing.AllocsPerRun(50, func() { s.NewSession(b, 0).Release() }); a != 0 {
			t.Errorf("%d rules: a recycled NewSession allocates %v times", n, a)
		}
	}
	if fresh[0] != fresh[1] {
		t.Errorf("a fresh NewSession allocates %v times under 10 rules, %v under 1 000", fresh[0], fresh[1])
	}
}

// testBase returns an empty Event Base of segSize over the Support's
// type registry, as the engine opens one per transaction; a Support
// whose registry no session has fixed yet takes a new one.
func (s *Support) testBase(segSize int) *event.Base {
	if s.reg == nil {
		s.reg = new(event.Registry)
	}
	return s.reg.NewBase(segSize)
}
