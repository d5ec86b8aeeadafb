package rules

import (
	"fmt"
	"runtime"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
)

// firstSessionBytes defines n rules, each on a primitive type of its own,
// and returns the bytes the first NewSession allocates: it derives the
// arrival table and registers the n types.
func firstSessionBytes(t *testing.T, n int) uint64 {
	t.Helper()
	s := NewSupport(nil, Options{})
	for i := 0; i < n; i++ {
		d := Def{Name: fmt.Sprintf("r%05d", i), Event: calculus.P(event.Create(fmt.Sprintf("c%05d", i)))}
		if err := s.Define(d); err != nil {
			t.Fatal(err)
		}
	}
	b := event.NewBase()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess := s.NewSession(b, clock.New().Now())
	runtime.ReadMemStats(&after)
	sess.Release()
	if got := b.Registry().Intern(event.Create("fresh")); got != int32(n) {
		t.Fatalf("%d types registered for %d rules", got, n)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestCost_FirstSessionRegistersLinearly: the first session after n
// single-type Defines registers the rule set's n types in one batch, so
// the bytes it allocates grow at most linearly in n. Registering them
// one by one copies the registry's table once per type: quadratic, a
// hundredfold from n = 1 000 to n = 10 000. The bound is twice linear:
// the tables' growth steps do not fall at the same place at both sizes.
func TestCost_FirstSessionRegistersLinearly(t *testing.T) {
	small, large := firstSessionBytes(t, 1000), firstSessionBytes(t, 10000)
	t.Logf("first session: %d B at 1 000 rules, %d B at 10 000", small, large)
	if large > 20*small {
		t.Errorf("first session allocates %d B at 10 000 rules against %d B at 1 000: more than linear", large, small)
	}
}
