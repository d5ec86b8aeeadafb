package rules

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// The arrival walk probes a non-monotone rule only at arrivals of the
// types its V(E) gives a Δ+ or Δ± variation (Section 5.1), and the
// non-monotone match-all rules at every arrival; the oracle
// (oracle_test.go) probes every rule at every arrival. The tests here
// hold the two to the same firings, activation instants included, over
// rule sets weighted toward the shapes the signed filing can get wrong.

// signedDefs draws n rules, most of them non-monotone: A + -B; a type
// under both polarities, which is Δ± (A + -A and -(A , B) + A never
// activate, (A , -B) + B and (A + -B) , (B + -A) do so at an arrival of
// the Δ± type); negation under precedence; instance-oriented negation,
// which makes the filter match all; and the vacuously active match-all
// rules -A and -(A + B).
func signedDefs(r *rand.Rand, vocab []event.Type, n int) []Def {
	prim := func() calculus.Expr { return calculus.P(vocab[r.Intn(len(vocab))]) }
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	defs := make([]Def, n)
	for i := range defs {
		a, b := prim(), prim()
		var e calculus.Expr
		switch i % 10 {
		case 0:
			e = calculus.Conj(a, calculus.Neg(b))
		case 1:
			e = calculus.Conj(a, calculus.Neg(a))
		case 2:
			e = calculus.Conj(calculus.Neg(calculus.Disj(a, b)), a)
		case 3:
			e = calculus.Conj(calculus.Disj(a, calculus.Neg(b)), b)
		case 4:
			e = calculus.Disj(calculus.Conj(a, calculus.Neg(b)), calculus.Conj(b, calculus.Neg(a)))
		case 5:
			e = calculus.Prec(a, calculus.Conj(b, calculus.Neg(a)))
		case 6:
			e = calculus.Conj(a, calculus.NegI(b))
		case 7:
			e = calculus.Neg(a)
		case 8:
			e = calculus.Neg(calculus.Conj(a, b))
		default:
			e = calculus.GenExpr(r, gen)
		}
		defs[i] = Def{Name: fmt.Sprintf("s%02d", i), Event: e, Priority: i % 3}
	}
	return defs
}

// The signed filing fires what the all-arrivals oracle fires, at the
// same instants: on segments of 1, 2 and 256 occurrences, and with every
// rule at a horizon of its own and checks cut short by a budget in the
// middle of the walk.
func TestSignedProbingMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	vocab := calculus.DefaultVocabulary()[:4]
	seen := &exercised{}
	spread := func(w replayOpts) replayOpts {
		w.spread, w.kill, w.considerAll, w.seen = true, true, true, seen
		return w
	}
	type variant struct {
		mk maker
		w  replayOpts
	}
	shapes := []struct {
		name string
		ref  replayOpts
		prod []variant
	}{
		{"picks", replayOpts{}, []variant{
			{production, replayOpts{segSize: 1}},
			{production, replayOpts{segSize: 2}},
			{production, replayOpts{segSize: 256}},
		}},
		{"horizons", spread(replayOpts{}), []variant{
			{production, spread(replayOpts{segSize: 1, compact: true})},
			{production, spread(replayOpts{segSize: 256})},
			{production, spread(replayOpts{segSize: 2})},
		}},
	}
	for trial := 0; trial < 12; trial++ {
		defs := signedDefs(r, vocab, 40)
		seed := r.Int63()
		for _, sh := range shapes {
			want := replay(t, reference, defs, vocab, seed, 10, sh.ref)
			for i, v := range sh.prod {
				got := replay(t, v.mk, defs, vocab, seed, 10, v.w)
				sameFirings(t, fmt.Sprintf("trial %d %s variant %d %+v", trial, sh.name, i, v.w), want, got)
			}
		}
	}
	if seen.midWalkKills == 0 {
		t.Error("no budget fault cut an arrival walk short")
	}
}

// arrival is one occurrence of a scripted history.
type arrival struct {
	ty  event.Type
	oid types.OID
}

// runScript appends hist at instants 1, 2, … to one base per segment
// size of segs and drives a Session of s (whose rules are defs) over
// each, beside the oracle over the first. A block ends after arrival i
// when bit i of cuts is set, and after the last arrival. With gas > 0
// every session checks every block first under a budget of gas units,
// then without one. After every check each rule's mark on every session
// must be the oracle's, activation instant included; then all of them
// consider every triggered rule at the check instant. It returns the
// oracle's number of triggerings.
func runScript(t *testing.T, s *Support, defs []Def, hist []arrival, cuts uint64, segs []int, gas int64) int {
	t.Helper()
	bases := make([]*event.Base, len(segs))
	sessions := make([]*Session, len(segs))
	for i, seg := range segs {
		bases[i] = s.testBase(seg)
		sessions[i] = s.NewSession(bases[i], 0)
		defer sessions[i].Release()
	}
	o := newOracle(bases[0], 0)
	defineAll(t, o, defs)
	tids := make([][]int32, len(segs))
	fired := 0
	for i, a := range hist {
		now := clock.Time(i + 1)
		for k, b := range bases {
			tid, err := b.AppendTID(a.ty, a.oid, now)
			if err != nil {
				t.Fatal(err)
			}
			tids[k] = append(tids[k], tid)
		}
		if i < len(hist)-1 && cuts&(1<<i) == 0 {
			continue
		}
		o.CheckTriggered(now)
		for k, sess := range sessions {
			sess.NotifyArrivals(tids[k])
			tids[k] = tids[k][:0]
			if gas > 0 {
				sess.SetBudget(calculus.NewBudget(gas, time.Time{}))
				_ = calculus.CatchBudget(func() { sess.CheckTriggered(now) })
				sess.SetBudget(nil)
				verifyIndex(t, sess)
			}
			sess.CheckTriggered(now)
			verifyIndex(t, sess)
			for _, d := range defs {
				got, _ := sess.Mark(d.Name)
				if want, _ := o.Mark(d.Name); got != want {
					t.Fatalf("rule %s = %s on %v cut %b (segments of %d, gas %d), block ending at %d: production %+v, oracle %+v",
						d.Name, d.Event, hist, cuts, segs[k], gas, now, got, want)
				}
			}
		}
		for _, d := range defs {
			if m, _ := o.Mark(d.Name); !m.Triggered {
				continue
			}
			fired++
			if _, err := o.Consider(d.Name, now); err != nil {
				t.Fatal(err)
			}
			for _, sess := range sessions {
				if _, err := sess.Consider(d.Name, now); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return fired
}

// exhaustiveDefs is the non-monotone catalogue of the calculus package's
// exhaustive suite over two types, plus the Δ± shapes of signedDefs and
// three monotone rules that share the arrival table with them.
func exhaustiveDefs(A, B calculus.Expr) []Def {
	exprs := []calculus.Expr{
		calculus.Neg(A), calculus.Neg(calculus.Neg(A)),
		calculus.Conj(A, calculus.Neg(B)), calculus.Disj(calculus.Neg(A), B),
		calculus.Neg(calculus.Conj(A, B)), calculus.Neg(calculus.Disj(A, B)),
		calculus.Prec(calculus.Neg(A), B), calculus.Prec(A, calculus.Neg(B)),
		calculus.Conj(calculus.Disj(A, B), calculus.Neg(calculus.Prec(A, B))),
		calculus.NegI(A),
		calculus.NegI(calculus.ConjI(A, B)), calculus.NegI(calculus.DisjI(A, B)),
		calculus.Disj(calculus.NegI(calculus.ConjI(A, B)), B),
		calculus.ConjI(A, calculus.NegI(B)), calculus.PrecI(calculus.NegI(A), B),
		// Δ± types.
		calculus.Conj(A, calculus.Neg(A)),
		calculus.Conj(calculus.Neg(calculus.Disj(A, B)), A),
		calculus.Conj(calculus.Disj(A, calculus.Neg(B)), B),
		calculus.Disj(calculus.Conj(A, calculus.Neg(B)), calculus.Conj(B, calculus.Neg(A))),
		calculus.Prec(A, calculus.Conj(B, calculus.Neg(A))),
		// Monotone.
		A, calculus.Prec(A, B), calculus.ConjI(A, B),
	}
	defs := make([]Def, len(exprs))
	for i, e := range exprs {
		defs[i] = Def{Name: fmt.Sprintf("e%02d", i), Event: e, Priority: i % 3}
	}
	return defs
}

// The walk decides every rule of the catalogue like the oracle on every
// history of up to four events over {A, B} × {o1, o2} (340 of them),
// under every way of cutting the history into blocks, on segments of 1,
// 2 and 256 occurrences: the bounded-exhaustive half of the proof that
// the signed filing loses no activation and moves none.
func TestExhaustiveWalkMatchesOracle(t *testing.T) {
	A, B := event.Create("a"), event.Create("b")
	defs := exhaustiveDefs(calculus.P(A), calculus.P(B))
	s := supportWith(t, defs)
	slots := []arrival{{A, 1}, {A, 2}, {B, 1}, {B, 2}}
	histories, fired := 0, 0
	var enumerate func(hist []arrival)
	enumerate = func(hist []arrival) {
		if n := len(hist); n > 0 {
			histories++
			for cuts := uint64(0); cuts < 1<<(n-1); cuts++ {
				fired += runScript(t, s, defs, hist, cuts, []int{1, 2, 256}, 0)
			}
		}
		if len(hist) == 4 {
			return
		}
		for _, a := range slots {
			enumerate(append(hist[:len(hist):len(hist)], a))
		}
	}
	enumerate(nil)
	if histories != 340 || fired == 0 {
		t.Fatalf("%d histories, %d triggerings", histories, fired)
	}
}

// signedTypes is FuzzSignedProbing's vocabulary: three types of one
// class, so that instance operators can pair them.
var signedTypes = []event.Type{event.Create("a"), event.Modify("a", "x"), event.Delete("a")}

// decodeExpr reads an expression over signedTypes from data: the low
// nibble of a byte picks the node, instance-oriented operators taking
// instance-oriented operands only; depth bounds the nesting.
func decodeExpr(data []byte, depth int, inst bool) (calculus.Expr, []byte) {
	if len(data) == 0 {
		return calculus.P(signedTypes[0]), data
	}
	op, data := data[0], data[1:]
	if depth == 0 || op&15 < 3 {
		return calculus.P(signedTypes[int(op>>4)%len(signedTypes)]), data
	}
	kind := int(op&15) - 3 // 0..12
	if inst {
		kind = 4 + kind%4 // -=, +=, ,=, <=
	}
	if kind == 0 || kind == 4 {
		x, data := decodeExpr(data, depth-1, kind == 4)
		if kind == 4 {
			return calculus.NegI(x), data
		}
		return calculus.Neg(x), data
	}
	sub := kind >= 4 && kind < 8
	l, data := decodeExpr(data, depth-1, sub)
	r, data := decodeExpr(data, depth-1, sub)
	switch kind {
	case 5:
		return calculus.ConjI(l, r), data
	case 6:
		return calculus.DisjI(l, r), data
	case 7:
		return calculus.PrecI(l, r), data
	case 1, 8, 11:
		return calculus.Conj(l, r), data
	case 2, 9, 12:
		return calculus.Disj(l, r), data
	}
	return calculus.Prec(l, r), data
}

// FuzzSignedProbing decodes a few rules and a history with block cuts
// from its input and holds a Session to the all-arrivals oracle on it
// (see runScript). The first byte gives the rule count, segment size and
// budget; every rule takes bytes until its expression is complete; every
// later byte is an arrival — type, object and whether a block ends after
// it.
func FuzzSignedProbing(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x03, 0x10, 0x08, 0x00, 0x00, 0x81, 0x01, 0x82})
	f.Add([]byte{0x15, 0x09, 0x03, 0x21, 0x00, 0x14, 0x03, 0x04, 0x01, 0x11, 0x03, 0x80, 0x01, 0x02, 0x81})
	f.Add([]byte{0x2e, 0x07, 0x05, 0x10, 0x20, 0x03, 0x01, 0x12, 0x82, 0x00, 0x01, 0x81, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		head, data := data[0], data[1:]
		var defs []Def
		for i := 0; i <= int(head&3) && len(data) > 0; i++ {
			var e calculus.Expr
			e, data = decodeExpr(data, 3, false)
			d := Def{Name: fmt.Sprintf("f%d", i), Event: e, Priority: i % 2}
			if d.Validate() != nil {
				continue
			}
			defs = append(defs, d)
		}
		var hist []arrival
		var cuts uint64
		for i, x := range data {
			if i == 16 {
				break
			}
			hist = append(hist, arrival{signedTypes[int(x&15)%len(signedTypes)], types.OID(1 + (x>>4)&1)})
			if x&0x80 != 0 {
				cuts |= 1 << i
			}
		}
		if len(defs) == 0 || len(hist) == 0 {
			return
		}
		seg := []int{1, 2, 256, 256}[head>>2&3]
		gas := int64(head >> 4)
		runScript(t, supportWith(t, defs), defs, hist, cuts, []int{seg}, gas)
	})
}
