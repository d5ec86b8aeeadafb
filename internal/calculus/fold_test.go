package calculus

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// The gather-and-probe lift, kept as the oracle of the fold: gather the
// lift's object domain, then probe ots for every object of it, each
// primitive under the lift once per object through the base's
// per-(type, object) index. It charges and counts what the fold must:
// one node for the domain, one per ots node visited.

// probeDomain is a lift's object domain over (since, t]: the objects node
// id's own types touched if restrict is set, every object of the window
// otherwise, as interned ids, ascending.
func (pe *PlanEval) probeDomain(id NodeID, restrict bool, t, since clock.Time) []int32 {
	pe.Budget.Charge()
	pe.evals++
	if !restrict {
		return pe.rd.AppendObjs(nil, since, t)
	}
	var ois []int32
	for _, oid := range pe.rd.AppendOIDsOfTypes(nil, Primitives(pe.plan.nodes[id].expr), since, t) {
		ois = append(ois, pe.rd.ObjID(oid))
	}
	slices.Sort(ois)
	return ois
}

// probeLift is lift by gathering the domain and probing ots for each of
// its objects. No fold is open, so every primitive probes the base.
func (pe *PlanEval) probeLift(id NodeID, t, since clock.Time) TS {
	n := &pe.plan.nodes[id]
	pe.rd = pe.base.Read()
	defer pe.rd.Done()
	oids := pe.probeDomain(id, n.safe, t, since)
	if n.key.op == planNot {
		best := TS(t)
		for i, oi := range oids {
			if v := pe.ots(id, t, since, oi, -1); i == 0 || v < best {
				best = v
			}
		}
		return best
	}
	best := -TS(t)
	for i, oi := range oids {
		if v := pe.ots(id, t, since, oi, -1); i == 0 || v > best {
			best = v
		}
	}
	return best
}

// probeAffected is AffectedObjects over the gathered domain.
func (pe *PlanEval) probeAffected(id NodeID, t, since clock.Time) []types.OID {
	pe.rd = pe.base.Read()
	defer pe.rd.Done()
	n := &pe.plan.nodes[id]
	restrict := !VacuouslyActive(n.expr)
	var out []types.OID
	for _, oi := range pe.probeDomain(id, restrict, t, since) {
		if pe.ots(id, t, since, oi, -1).Active() {
			out = append(out, pe.rd.OID(oi))
		}
	}
	if restrict {
		slices.Sort(out)
	}
	return out
}

// foldShapes are the lifts the fold must get right whatever the random
// draw: a restriction-safe instance conjunction; lifts that are not
// restrictionSafe, which count the objects no leaf touched; and lifts
// probed at a historical instant, as a set precedence's left operand and
// under an instance precedence.
func foldShapes(vocab []event.Type) []Expr {
	a, b, c := P(vocab[0]), P(vocab[2]), P(vocab[3])
	return []Expr{
		ConjI(b, c),
		NegI(NegI(a)),
		DisjI(a, NegI(b)),
		Prec(ConjI(b, c), a),
		PrecI(ConjI(b, c), a),
		Conj(NegI(PrecI(a, b)), ConjI(b, c)),
	}
}

// instanceRooted draws n random instance-rooted expressions.
func instanceRooted(r *rand.Rand, vocab []event.Type, n int) []Expr {
	var out []Expr
	for len(out) < n {
		e := GenExpr(r, GenOptions{Types: vocab, MaxDepth: 3,
			AllowNegation: true, AllowInstance: true, AllowPrecedence: true})
		if IsInstanceRooted(e) {
			out = append(out, e)
		}
	}
	return out
}

// appendHistory appends events random occurrences on objects 1..objects
// to b, one tick of c each, and returns the instant after the last.
func appendHistory(r *rand.Rand, b *event.Base, c *clock.Clock, vocab []event.Type, objects, events int) clock.Time {
	for i := 0; i < events; i++ {
		if _, err := b.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(objects)), c.Tick()); err != nil {
			panic(err)
		}
	}
	return c.Tick()
}

// TestFoldMatchesProbeLift holds the fold to the gather-and-probe lift
// and to the definition, value for value: every lift node of random
// instance-rooted trees and of foldShapes, at every arrival instant and
// now, over several horizons each (so windows cut segments at both ends),
// over segments of 1, 2 and 256 occurrences. For restriction-safe lifts
// the fold also computes exactly the oracle's number of nodes. The
// history then grows onto objects interned after the fold's tables were
// sized, and the same evaluator is checked again.
func TestFoldMatchesProbeLift(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	vocab := DefaultVocabulary()
	for _, seg := range []int{1, 2, 256} {
		for trial := 0; trial < 4; trial++ {
			c := clock.New()
			base := event.NewBaseSize(seg)
			exprs := append(foldShapes(vocab), instanceRooted(r, vocab, 4)...)
			pe, roots := evaluator(base, exprs...)
			oracle := NewPlanEval(pe.plan)
			var lifts []NodeID
			for id := range pe.plan.nodes {
				if n := &pe.plan.nodes[id]; n.expr != nil && n.instRooted {
					lifts = append(lifts, NodeID(id))
				}
			}
			objects := 4
			for phase := 0; phase < 2; phase++ {
				now := appendHistory(r, base, c, vocab, objects, 24)
				objects = 40 // the next phase logs objects past the tables' first size
				pe.Bind(base, clock.Never)
				oracle.Bind(base, clock.Never)
				probes := append(base.AppendArrivals(nil, clock.Never, now), now)
				horizons := []clock.Time{clock.Never, now / 3, now / 2, now - 3}
				for _, at := range probes {
					pe.Begin(at)
					for _, since := range horizons {
						if at <= since {
							continue
						}
						env := &Env{Base: base, Since: since}
						for i, e := range exprs {
							if got, want := pe.TS(roots[i], at, since), env.TS(e, at); got != want {
								t.Fatalf("seg %d trial %d: ts(%s, %d) since %d = %d, want %d", seg, trial, e, at, since, got, want)
							}
						}
						for _, id := range lifts {
							n := &pe.plan.nodes[id]
							pe.TakeCounters()
							got := pe.lift(id, n, at, since)
							foldEvals, _ := pe.TakeCounters()
							oracle.TakeCounters()
							want := oracle.probeLift(id, at, since)
							probeEvals, _ := oracle.TakeCounters()
							if def := env.TS(n.expr, at); got != want || want != def {
								t.Fatalf("seg %d trial %d: lift %s at %d since %d: fold %d, probes %d, definition %d",
									seg, trial, n.expr, at, since, got, want, def)
							}
							if n.safe && foldEvals != probeEvals {
								t.Fatalf("seg %d trial %d: lift %s at %d since %d computed %d nodes, the probes %d",
									seg, trial, n.expr, at, since, foldEvals, probeEvals)
							}
						}
					}
				}
				for _, since := range horizons {
					env := &Env{Base: base, Since: since}
					for i, e := range exprs {
						want := wantAffected(env, e, now)
						if got := pe.AffectedObjects(nil, roots[i], now, since); !slices.Equal(got, want) {
							t.Fatalf("seg %d trial %d: affected objects of %s since %d = %v, want %v", seg, trial, e, since, got, want)
						}
						if got := oracle.probeAffected(roots[i], now, since); !slices.Equal(got, want) {
							t.Fatalf("seg %d trial %d: oracle's affected objects of %s since %d = %v, want %v", seg, trial, e, since, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFoldAfterBudgetKill kills lifts at every point of their work — at
// the fold itself, between the fold and the objects' ots and inside the
// latter — and requires the next evaluation on the same evaluator to
// equal the oracle, and an ActivationTimes probe at the killed instant
// over another horizon to find nothing of the killed fold.
func TestFoldAfterBudgetKill(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	vocab := DefaultVocabulary()
	c := clock.New()
	base := event.NewBaseSize(2)
	now := appendHistory(r, base, c, vocab, 6, 60)
	for _, e := range foldShapes(vocab) {
		pe, roots := evaluator(base, e)
		oracle := NewPlanEval(pe.plan)
		oracle.Bind(base, clock.Never)
		oracle.Begin(now)
		for _, since := range []clock.Time{clock.Never, now / 2} {
			env := &Env{Base: base, Since: since}
			killed := 0
			for gas := int64(1); ; gas++ {
				pe.Budget = NewBudget(gas, time.Time{})
				err := CatchBudget(func() {
					pe.Bind(base, clock.Never)
					pe.Begin(now)
					pe.TS(roots[0], now, since)
				})
				pe.Budget = nil
				if err == nil {
					break
				}
				if !errors.Is(err, ErrGasExhausted) {
					t.Fatalf("%s: gas %d: %v", e, gas, err)
				}
				killed++
				other := now - 5
				for _, oid := range []types.OID{1, 2, 3} {
					if got, want := pe.ActivationTimes(nil, roots[0], now, other, oid),
						(&Env{Base: base, Since: other}).ActivationTimes(e, now, oid); !slices.Equal(got, want) {
						t.Fatalf("%s killed at gas %d: activation instants of %s = %v, want %v", e, gas, oid, got, want)
					}
				}
				pe.Bind(base, clock.Never)
				pe.Begin(now)
				if got, def := pe.TS(roots[0], now, since), env.TS(e, now); got != def {
					t.Fatalf("%s killed at gas %d since %d: next ts = %d, want %d", e, gas, since, got, def)
				}
				if IsInstanceRooted(e) {
					if got, def := pe.lift(roots[0], &pe.plan.nodes[roots[0]], now, since), oracle.probeLift(roots[0], now, since); got != def {
						t.Fatalf("%s killed at gas %d since %d: next lift = %d, oracle %d", e, gas, since, got, def)
					}
				}
			}
			if killed < 3 {
				t.Fatalf("%s since %d: only %d kill points", e, since, killed)
			}
		}
	}
}

// TestFoldCostFollowsTheWindow pins what a fresh evaluator's first lift
// allocates — a condition's evaluator is fresh in every transaction — to
// the objects of the window, not to the base's history: after 100 000
// objects were logged, a lift over a window of 8 objects, one of them
// among the first logged and the rest among the last, allocates a few
// kilobytes, where tables indexed by interned object id would take
// megabytes.
func TestFoldCostFollowsTheWindow(t *testing.T) {
	vocab := DefaultVocabulary()
	c := clock.New()
	base := event.NewBase()
	const history = 100_000
	for i := 0; i < history; i++ {
		if _, err := base.Append(vocab[i%len(vocab)], types.OID(i+1), c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	since := c.Now()
	for i := 0; i < 64; i++ {
		oid := types.OID(history - i%7)
		if i%8 == 0 {
			oid = 1
		}
		if _, err := base.Append(vocab[2+i%2], oid, c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	now := c.Tick()
	lift := ConjI(P(vocab[2]), P(vocab[3]))
	want := (&Env{Base: base, Since: since}).TS(lift, now)
	var got TS
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pe, roots := evaluator(base, lift)
	pe.Begin(now)
	got = pe.TS(roots[0], now, since)
	runtime.ReadMemStats(&after)
	if got != want {
		t.Fatalf("ts(%s) = %d, want %d", lift, got, want)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 16<<10 {
		t.Errorf("a fresh evaluator's lift over 8 objects allocated %d bytes after %d objects were logged, want at most 16 KiB", bytes, history)
	}
}

// TestFoldEpochsWrap runs folds, then winds the fold epoch to its last
// value with the table's entries stamped with the epoch the wrap returns
// to, as 2^32 folds could leave them, and folds again: every value must
// equal the definition.
func TestFoldEpochsWrap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vocab := DefaultVocabulary()
	c := clock.New()
	base := event.NewBaseSize(4)
	now := appendHistory(r, base, c, vocab, 6, 40)
	exprs := foldShapes(vocab)
	pe, roots := evaluator(base, exprs...)
	// Newest first, so the first fold after the wrap touches every object.
	probes := append(base.AppendArrivals(nil, clock.Never, now), now)
	slices.Reverse(probes)
	for round := 0; round < 2; round++ {
		for _, since := range []clock.Time{clock.Never, now / 2} {
			env := &Env{Base: base, Since: since}
			pe.Bind(base, clock.Never)
			for _, at := range probes {
				if at <= since {
					continue
				}
				pe.Begin(at)
				for i, e := range exprs {
					if got, want := pe.TS(roots[i], at, since), env.TS(e, at); got != want {
						t.Fatalf("round %d: ts(%s, %d) since %d = %d, want %d", round, e, at, since, got, want)
					}
				}
			}
		}
		for i := range pe.rows {
			pe.rows[i].epoch = 1
		}
		pe.foldGen = math.MaxUint32
	}
}
