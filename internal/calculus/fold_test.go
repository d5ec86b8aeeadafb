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
// otherwise, as interned ids, ascending. It scans the base's window and
// must run outside a read section.
func (pe *PlanEval) probeDomain(id NodeID, restrict bool, t, since clock.Time) []int32 {
	pe.Budget.Charge()
	pe.evals++
	prims := Primitives(pe.plan.nodes[id].expr)
	var oids []types.OID
	for _, occ := range pe.base.Window(since, t) {
		if !restrict || slices.Contains(prims, occ.Type) {
			oids = append(oids, occ.OID)
		}
	}
	rd := pe.base.Read()
	defer rd.Done()
	var ois []int32
	for _, oid := range oids {
		ois = append(ois, rd.ObjID(oid))
	}
	slices.Sort(ois)
	return slices.Compact(ois)
}

// probeLift is lift by gathering the domain and probing ots for each of
// its objects. No fold is open, so every primitive probes the base.
func (pe *PlanEval) probeLift(id NodeID, t, since clock.Time) TS {
	n := &pe.plan.nodes[id]
	oids := pe.probeDomain(id, n.safe, t, since)
	pe.rd = pe.base.Read()
	defer pe.rd.Done()
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
	restrict := !VacuouslyActive(pe.plan.nodes[id].expr)
	domain := pe.probeDomain(id, restrict, t, since)
	pe.rd = pe.base.Read()
	defer pe.rd.Done()
	var out []types.OID
	for _, oi := range domain {
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
// restrictionSafe, which count the objects no leaf touched; lifts probed
// at a historical instant, as a set precedence's left operand and under
// an instance precedence; and five lifts over one leaf set, {A, B}, which
// read one kept fold at an instant — A += B and its commuted form, A ,= B,
// the universal -=(A += B), which is not restrictionSafe, and A <= B.
func foldShapes(vocab []event.Type) []Expr {
	a, b, c := P(vocab[0]), P(vocab[2]), P(vocab[3])
	return []Expr{
		ConjI(b, c),
		NegI(NegI(a)),
		DisjI(a, NegI(b)),
		Prec(ConjI(b, c), a),
		PrecI(ConjI(b, c), a),
		Conj(NegI(PrecI(a, b)), ConjI(b, c)),
		ConjI(a, b),
		ConjI(b, a),
		DisjI(a, b),
		NegI(ConjI(a, b)),
		PrecI(a, b),
	}
}

// horizonOrders are the orders TestFoldMatchesProbeLift probes an
// instant's horizons in: ascending, so each lift reads the fold kept at
// the lowest; descending, so each refolds at its own; and shuffled.
func horizonOrders(r *rand.Rand, horizons []clock.Time) [][]clock.Time {
	desc := slices.Clone(horizons)
	slices.Reverse(desc)
	shuffled := slices.Clone(horizons)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return [][]clock.Time{horizons, desc, shuffled}
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
// probed in ascending, descending and shuffled order (so a lift reads the
// fold its leaf set kept at a lower horizon, or refolds at its own), over
// segments of 1, 2 and 256 occurrences. For restriction-safe lifts the
// fold computes exactly the oracle's number of nodes, or, reading a kept
// fold, one fewer (the oracle's domain gather) and scores one memo hit.
// The history then grows onto objects interned after the fold's tables
// were sized, and the same evaluator is checked again.
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
				orders := horizonOrders(r, horizons)
				for pi, at := range probes {
					pe.Begin(at)
					for _, since := range orders[pi%len(orders)] {
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
							foldEvals, reused := pe.TakeCounters()
							oracle.TakeCounters()
							want := oracle.probeLift(id, at, since)
							probeEvals, _ := oracle.TakeCounters()
							if def := env.TS(n.expr, at); got != want || want != def {
								t.Fatalf("seg %d trial %d: lift %s at %d since %d: fold %d, probes %d, definition %d",
									seg, trial, n.expr, at, since, got, want, def)
							}
							if reused > 1 || n.safe && foldEvals+reused != probeEvals {
								t.Fatalf("seg %d trial %d: lift %s at %d since %d computed %d nodes and reused %d folds, the probes computed %d",
									seg, trial, n.expr, at, since, foldEvals, reused, probeEvals)
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
						// The same fold hands out every object E's own types
						// touched, ascending: the restricted domain.
						got, touched := pe.AffectedWindow(nil, nil, roots[i], now, since)
						if !slices.Equal(got, want) {
							t.Fatalf("seg %d trial %d: AffectedWindow's affected objects of %s since %d = %v, want %v", seg, trial, e, since, got, want)
						}
						ois := oracle.probeDomain(roots[i], true, now, since)
						var domain []types.OID
						rd := base.Read()
						for _, oi := range ois {
							domain = append(domain, rd.OID(oi))
						}
						rd.Done()
						slices.Sort(domain)
						if !slices.Equal(touched, domain) {
							t.Fatalf("seg %d trial %d: objects %s's types touched since %d = %v, want %v", seg, trial, e, since, touched, domain)
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
// latter — in a fresh fold, in a fold kept at a lower horizon of the same
// instant and read again, and in a refold below the kept one. The next
// evaluations in the killed generation, at every horizon, must equal the
// definition and the oracle, an ActivationTimes probe at the killed
// instant over another horizon must find nothing of the killed fold, and
// the next generation's ts must equal the definition.
func TestFoldAfterBudgetKill(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	vocab := DefaultVocabulary()
	c := clock.New()
	base := event.NewBaseSize(2)
	now := appendHistory(r, base, c, vocab, 6, 60)
	horizons := []clock.Time{clock.Never, now / 3, now / 2}
	cases := []struct {
		name  string
		warm  clock.Time // the horizon evaluated first, unbudgeted; -1 for none
		since clock.Time
	}{
		{"fresh", -1, clock.Never},
		{"fresh", -1, now / 2},
		{"reused", clock.Never, now / 2},
		{"refold", now / 2, clock.Never},
	}
	for _, e := range foldShapes(vocab) {
		pe, roots := evaluator(base, e)
		oracle := NewPlanEval(pe.plan)
		oracle.Bind(base, clock.Never)
		oracle.Begin(now)
		for _, tc := range cases {
			killed := 0
			for gas := int64(1); ; gas++ {
				pe.Bind(base, clock.Never)
				pe.Begin(now)
				if tc.warm >= 0 {
					pe.TS(roots[0], now, tc.warm)
				}
				pe.TakeCounters()
				pe.Budget = NewBudget(gas, time.Time{})
				err := CatchBudget(func() { pe.TS(roots[0], now, tc.since) })
				pe.Budget = nil
				if err == nil {
					if _, hits := pe.TakeCounters(); tc.name == "reused" && IsInstanceRooted(e) && hits == 0 {
						t.Fatalf("%s since %d after %d: no kept fold was read", e, tc.since, tc.warm)
					}
					break
				}
				if !errors.Is(err, ErrGasExhausted) {
					t.Fatalf("%s: gas %d: %v", e, gas, err)
				}
				killed++
				for _, since := range append([]clock.Time{tc.since}, horizons...) {
					if got, def := pe.TS(roots[0], now, since), (&Env{Base: base, Since: since}).TS(e, now); got != def {
						t.Fatalf("%s %s killed at gas %d: next ts since %d = %d, want %d", tc.name, e, gas, since, got, def)
					}
					if IsInstanceRooted(e) {
						if got, def := pe.lift(roots[0], &pe.plan.nodes[roots[0]], now, since), oracle.probeLift(roots[0], now, since); got != def {
							t.Fatalf("%s %s killed at gas %d: next lift since %d = %d, oracle %d", tc.name, e, gas, since, got, def)
						}
					}
				}
				other := now - 5
				for _, oid := range []types.OID{1, 2, 3} {
					if got, want := pe.ActivationTimes(nil, roots[0], now, other, oid),
						(&Env{Base: base, Since: other}).ActivationTimes(e, now, oid); !slices.Equal(got, want) {
						t.Fatalf("%s %s killed at gas %d: activation instants of %s = %v, want %v", tc.name, e, gas, oid, got, want)
					}
				}
				pe.Bind(base, clock.Never)
				pe.Begin(now)
				if got, def := pe.TS(roots[0], now, tc.since), (&Env{Base: base, Since: tc.since}).TS(e, now); got != def {
					t.Fatalf("%s %s killed at gas %d since %d: next generation's ts = %d, want %d", tc.name, e, gas, tc.since, got, def)
				}
			}
			if killed < 3 {
				t.Fatalf("%s %s since %d: only %d kill points", tc.name, e, tc.since, killed)
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
