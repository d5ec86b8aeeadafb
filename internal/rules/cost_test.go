package rules

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
// every 16 events, each triggered rule considered at the check instant.
// Per event: probes of the arrival walk (Session.visits), ts evaluations
// and triggerings, and an FNV-1a hash of the firing trace — every
// check's fired rules with their activation instants, in order. The
// stream runs twice, on a Session and through the Support's kernel-only
// calls, and both must read the same.
func TestCost_StreamRules(t *testing.T) {
	const classes, nrules = 8, 300
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
	const want = "19549 visits, 383123 ts evaluations, 18739 triggerings, trace 0x1a24017f4eba2f4c"

	s := supportWith(t, defs)
	b, c := event.NewBase(), clock.New()
	sess := s.NewSession(b, c.Now())
	defer sess.Release()
	trace := costStream(t, b, c, func(occs []event.Occurrence) { sess.NotifyArrivals(tidsOf(b, occs)) }, sess, sess.Mark)
	if got := costReading(sess, trace); got != want {
		t.Errorf("on a Session: %s; want %s", got, want)
	}

	kb, kc := event.NewBase(), clock.New()
	k := NewSupport(kb, Options{})
	defineAll(t, k, defs)
	k.BeginTransaction(kc.Now())
	defer k.own.Release()
	trace = costStream(t, kb, kc, k.NotifyArrivals, k, k.own.Mark)
	if got := costReading(k.own, trace); got != want {
		t.Errorf("through the kernel-only calls: %s; want %s", got, want)
	}
}

// costLine is what the cost stream drives: a Session, or a Support's
// kernel-only calls.
type costLine interface {
	CheckTriggered(now clock.Time) []string
	Pick(filter func(Def) bool) (string, bool)
	Consider(name string, now clock.Time) (Consideration, error)
}

// costStream appends TestCost_StreamRules' 4 096 events to b, hands each
// block of 16 to announce, checks, considers every triggered rule at the
// check instant, and returns the FNV-1a hash of the firing trace.
func costStream(t *testing.T, b *event.Base, c *clock.Clock, announce func([]event.Occurrence), sub costLine, mark func(string) (Mark, bool)) uint64 {
	t.Helper()
	const classes, objects, events, block = 8, 8, 4096, 16
	in := rand.New(rand.NewSource(7))
	trace := fnv.New64a()
	occs := make([]event.Occurrence, 0, block)
	for i := 0; i < events; i++ {
		cl, p := in.Intn(classes), 2
		if x := in.Intn(100); x < 5 {
			p = 0
		} else if x < 65 {
			p = 1
		}
		occ, err := b.Append(costPrim(cl, p), types.OID(1+cl*objects+in.Intn(objects)), c.Tick())
		if err != nil {
			t.Fatal(err)
		}
		if occs = append(occs, occ); len(occs) < block {
			continue
		}
		announce(occs)
		occs = occs[:0]
		for _, name := range sub.CheckTriggered(c.Now()) {
			m, _ := mark(name)
			trace.Write([]byte(name))
			trace.Write(binary.LittleEndian.AppendUint64(nil, uint64(m.TriggeredAt)))
		}
		for {
			name, ok := sub.Pick(nil)
			if !ok {
				break
			}
			if _, err := sub.Consider(name, c.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return trace.Sum64()
}

// costReading renders a Session's counters and a firing trace's hash.
func costReading(sess *Session, trace uint64) string {
	st := sess.Stats()
	return fmt.Sprintf("%d visits, %d ts evaluations, %d triggerings, trace %#016x", sess.visits, st.TsEvaluations, st.Triggerings, trace)
}
