package calculus

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

func TestPlanInterningSharesStructure(t *testing.T) {
	p := NewPlan()
	a := P(event.Create("stock"))
	b := P(event.Delete("stock"))
	shared := Conj(a, Neg(b))

	r1 := p.Intern(Disj(shared, P(event.Create("show"))))
	r2 := p.Intern(Disj(shared, P(event.Modify("show", "quantity"))))
	r3 := p.Intern(shared)

	if r1 == r2 {
		t.Fatalf("distinct roots interned to the same id %d", r1)
	}
	// The shared conjunction must be one node: r3 is its id, and both
	// disjunction roots reference it.
	if got := p.Refs(r3); got != 3 {
		t.Fatalf("shared subexpression refs = %d, want 3 (two parents + one root)", got)
	}
	if !Equal(p.Expr(r3), shared) {
		t.Fatalf("canonical expr of shared node = %s, want %s", p.Expr(r3), shared)
	}
	// DAG: prim a, prim b, -b, a + -b, prim show-create, prim show-modify,
	// two disjunctions = 8 live nodes.
	if p.Live() != 8 {
		t.Fatalf("live nodes = %d, want 8", p.Live())
	}
	if p.Shared() == 0 {
		t.Fatalf("no shared nodes counted")
	}

	p.Release(r1)
	p.Release(r2)
	if got := p.Refs(r3); got != 1 {
		t.Fatalf("after releasing parents, shared refs = %d, want 1", got)
	}
	// a + -b plus its two primitives and the negation stay; everything
	// reachable only from the released roots is gone.
	if p.Live() != 4 {
		t.Fatalf("live nodes after release = %d, want 4", p.Live())
	}
	p.Release(r3)
	if p.Live() != 0 || p.Shared() != 0 {
		t.Fatalf("plan not empty after releasing every root: live=%d shared=%d", p.Live(), p.Shared())
	}

	// Freed ids are recycled.
	capBefore := p.Cap()
	p.Intern(shared)
	if p.Cap() != capBefore {
		t.Fatalf("re-interning grew the id space: cap %d -> %d", capBefore, p.Cap())
	}
}

// TestPlanInternsFoldSets holds the fold-set table to its definition
// while random expressions are interned and released: every live node's
// set is the sorted, distinct prims under it, each set is counted once
// per live node over it, no two live sets hold the same leaves, every
// set is on its least leaf's chain, and releasing every root frees every
// set. Lifts over one leaf set in any order and shape share one set.
func TestPlanInternsFoldSets(t *testing.T) {
	p := NewPlan()
	a, b := P(event.Create("stock")), P(event.Modify("stock", "quantity"))
	var roots []NodeID
	for _, e := range []Expr{ConjI(a, b), ConjI(b, a), DisjI(a, b), NegI(ConjI(a, b)), PrecI(a, b), Conj(a, Neg(b))} {
		roots = append(roots, p.Intern(e))
	}
	for _, id := range roots[1:] {
		if p.nodes[id].set != p.nodes[roots[0]].set {
			t.Fatalf("%s and %s have different fold sets", p.nodes[id].expr, p.nodes[roots[0]].expr)
		}
	}
	checkFoldSets(t, p)
	r := rand.New(rand.NewSource(12))
	vocab := DefaultVocabulary()
	for step := 0; step < 400; step++ {
		if len(roots) > 0 && r.Intn(3) == 0 {
			i := r.Intn(len(roots))
			p.Release(roots[i])
			roots = slices.Delete(roots, i, i+1)
		} else {
			roots = append(roots, p.Intern(GenExpr(r, GenOptions{Types: vocab, MaxDepth: 3,
				AllowNegation: true, AllowInstance: true, AllowPrecedence: true})))
		}
		checkFoldSets(t, p)
	}
	for _, id := range roots {
		p.Release(id)
	}
	if live := len(p.sets) - len(p.freeSets); live != 0 {
		t.Fatalf("%d fold sets live after every root was released", live)
	}
}

// checkFoldSets checks the fold-set table of p against the live nodes.
func checkFoldSets(t *testing.T, p *Plan) {
	t.Helper()
	var under func(id NodeID, dst []NodeID) []NodeID
	under = func(id NodeID, dst []NodeID) []NodeID {
		if id == NoNode {
			return dst
		}
		if n := &p.nodes[id]; n.key.op != planPrim {
			return under(n.key.r, under(n.key.l, dst))
		}
		return append(dst, id)
	}
	refs := make(map[int32]int32)
	for id := range p.nodes {
		n := &p.nodes[id]
		if n.expr == nil {
			continue
		}
		want := under(NodeID(id), nil)
		slices.Sort(want)
		if got := p.sets[n.set].leaves; !slices.Equal(got, slices.Compact(want)) {
			t.Fatalf("%s: fold set %v, want %v", n.expr, got, want)
		}
		refs[n.set]++
	}
	seen := make(map[string]bool)
	for s, fs := range p.sets {
		if fs.refs != refs[int32(s)] {
			t.Fatalf("fold set %d %v: %d references, %d live nodes over it", s, fs.leaves, fs.refs, refs[int32(s)])
		}
		if fs.refs == 0 {
			continue
		}
		key := fmt.Sprint(fs.leaves)
		if seen[key] {
			t.Fatalf("fold set %v interned twice", fs.leaves)
		}
		seen[key] = true
		on := false
		for c := p.nodes[fs.leaves[0]].set; c >= 0; c = p.sets[c].next {
			on = on || c == int32(s)
		}
		if !on {
			t.Fatalf("fold set %d %v is not on its least leaf's chain", s, fs.leaves)
		}
	}
}

// evaluator interns exprs into a fresh plan and returns an evaluator over
// it bound to base from the beginning, with the root of each expression.
func evaluator(base *event.Base, exprs ...Expr) (*PlanEval, []NodeID) {
	plan := NewPlan()
	roots := make([]NodeID, len(exprs))
	for i, e := range exprs {
		roots[i] = plan.Intern(e)
	}
	pe := NewPlanEval(plan)
	pe.Bind(base, clock.Never)
	return pe, roots
}

// wantAffected is the definition's affected objects in the order PlanEval
// returns them: ascending by OID unless e is vacuously active.
func wantAffected(env *Env, e Expr, t clock.Time) []types.OID {
	objs := env.AffectedObjects(e, t)
	if !VacuouslyActive(e) {
		slices.Sort(objs)
	}
	return objs
}

// TestPlanEvalMatchesEnv pins the memoized DAG evaluator to the
// definition over random expressions and histories, at every arrival
// instant and the final now — including precedence (whose left operand is
// probed at a historical instant and must bypass the memo) and instance
// lifts, whose domains PlanEval restricts and the definition does not.
// Every generation serves several horizons, interleaved, so a memoized
// value is read back only inside the range of horizons it holds for. At
// now, every root's affected objects (in order) and, for every object of
// the base and one it never logged, its activation instants match too.
func TestPlanEvalMatchesEnv(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	vocab := DefaultVocabulary()
	for trial := 0; trial < 60; trial++ {
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 5, Events: 40})

		// A handful of expressions with forced overlap: some reuse a shared
		// fragment so the memo actually dedups across roots.
		frag := GenExpr(r, GenOptions{Types: vocab, MaxDepth: 2,
			AllowNegation: true, AllowInstance: true, AllowPrecedence: true})
		exprs := make([]Expr, 0, 6)
		for i := 0; i < 4; i++ {
			e := GenExpr(r, GenOptions{Types: vocab, MaxDepth: 3,
				AllowNegation: true, AllowInstance: true, AllowPrecedence: true})
			exprs = append(exprs, e)
			if i%2 == 0 {
				exprs = append(exprs, Disj(e, frag))
			}
		}
		pe, roots := evaluator(base, exprs...)

		horizons := []clock.Time{clock.Never, now / 3, now / 2, now/2 + 1}
		envs := make([]*Env, len(horizons))
		for h, since := range horizons {
			envs[h] = &Env{Base: base, Since: since}
		}
		probes := base.AppendArrivals(nil, clock.Never, now)
		probes = append(probes, now)
		for _, at := range probes {
			pe.Begin(at)
			for i, e := range exprs {
				for h, since := range horizons {
					if at <= since {
						continue
					}
					want := envs[h].TS(e, at)
					if got := pe.TS(roots[i], at, since); got != want {
						t.Fatalf("trial %d since=%d: ts(%s, %d) = %d via plan, %d via definition",
							trial, since, e, at, got, want)
					}
					// A second read serves the same value, from the memo.
					if again := pe.TS(roots[i], at, since); again != want {
						t.Fatalf("memoized reread of ts(%s, %d) since %d = %d, want %d", e, at, since, again, want)
					}
				}
			}
		}
		objs := append(base.OIDs(clock.Never, now), 999)
		for i, e := range exprs {
			if !IsInstanceRooted(e) {
				continue
			}
			for h, since := range horizons {
				want := wantAffected(envs[h], e, now)
				if got := pe.AffectedObjects(nil, roots[i], now, since); !slices.Equal(got, want) {
					t.Fatalf("trial %d since=%d: affected objects of %s = %v via plan, %v via definition",
						trial, since, e, got, want)
				}
				for _, oid := range objs {
					want := envs[h].ActivationTimes(e, now, oid)
					if got := pe.ActivationTimes(nil, roots[i], now, since, oid); !slices.Equal(got, want) {
						t.Fatalf("trial %d since=%d: activation instants of %s for %s = %v via plan, %v via definition",
							trial, since, e, oid, got, want)
					}
				}
			}
		}
	}
}

// TestPlanEvalTrackingMatchesEnv pins the prim-cursor fast path (Track +
// NoteArrivalTID) to the reference evaluator under the walk's driving
// contract: arrivals after the floor reported in timestamp order,
// ascending probe instants, and instants skipped without probing — the
// cursor's lazy catch-up query — mixed with instants probed right after
// their arrival is noted, each at two horizons at or above the floor.
func TestPlanEvalTrackingMatchesEnv(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vocab := DefaultVocabulary()
	for trial := 0; trial < 60; trial++ {
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 5, Events: 40})

		exprs := make([]Expr, 0, 4)
		for i := 0; i < 4; i++ {
			exprs = append(exprs, GenExpr(r, GenOptions{Types: vocab, MaxDepth: 3,
				AllowNegation: true, AllowInstance: true, AllowPrecedence: true}))
		}
		plan := NewPlan()
		roots := make([]NodeID, len(exprs))
		for i, e := range exprs {
			roots[i] = plan.Intern(e)
		}

		for _, floor := range []clock.Time{clock.Never, now / 2} {
			horizons := []clock.Time{floor, floor + (now-floor)/2}
			envs := make([]*Env, len(horizons))
			for h, since := range horizons {
				envs[h] = &Env{Base: base, Since: since}
			}
			pe := NewPlanEval(plan)
			pe.Track(true)
			pe.Bind(base, floor)
			probe := func(at clock.Time) {
				t.Helper()
				pe.Begin(at)
				for i, e := range exprs {
					for h, since := range horizons {
						if at <= since {
							continue
						}
						if got, want := pe.TS(roots[i], at, since), envs[h].TS(e, at); got != want {
							t.Fatalf("trial %d floor=%d since=%d: tracked ts(%s, %d) = %d, want %d",
								trial, floor, since, e, at, got, want)
						}
					}
				}
			}
			for j, o := range base.AppendWindow(nil, floor, now) {
				tid := base.Registry().Intern(o.Type)
				pe.NoteArrivalTID(tid, o.Timestamp)
				if j%2 == 0 {
					probe(o.Timestamp) // odd arrivals are noted but never probed: later probes must still see them
				}
			}
			probe(now)
		}
	}
}

// TestPlanEvalSharingCounters checks the memo actually avoids work when
// roots share subexpressions, and that TakeCounters drains.
func TestPlanEvalSharingCounters(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	vocab := DefaultVocabulary()
	c := clock.New()
	base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 4, Events: 30})

	shared := Conj(P(vocab[0]), P(vocab[1]))
	plan := NewPlan()
	r1 := plan.Intern(Disj(shared, P(vocab[2])))
	r2 := plan.Intern(Disj(shared, P(vocab[3])))

	pe := NewPlanEval(plan)
	pe.Bind(base, clock.Never)
	pe.Begin(now)
	pe.TS(r1, now, clock.Never)
	evals1, hits1 := pe.TakeCounters()
	if evals1 == 0 || hits1 != 0 {
		t.Fatalf("first root: evals=%d hits=%d, want work and no hits", evals1, hits1)
	}
	pe.TS(r2, now, clock.Never)
	evals2, hits2 := pe.TakeCounters()
	if hits2 == 0 {
		t.Fatalf("second root sharing a conjunction produced no memo hits (evals=%d)", evals2)
	}
	if evals2 >= evals1 {
		t.Fatalf("second root computed %d nodes, expected fewer than the first root's %d", evals2, evals1)
	}
	if e, h := pe.TakeCounters(); e != 0 || h != 0 {
		t.Fatalf("TakeCounters did not drain: evals=%d hits=%d", e, h)
	}
}

// TestLiftsInterleavedWithAppends interleaves appends past now with long
// lifts at now — PlanEval's ts and its occurred() window, AffectedObjects
// — on the base's one goroutine. The appends roll segments over and grow
// the columns and index arenas the folds read, but land outside (−∞, now],
// so the lifts' answers must stay those of Env; every so often a lift at
// the newest instant is held to Env as well.
func TestLiftsInterleavedWithAppends(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vocab := DefaultVocabulary()
	c := clock.New()
	base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 200, Events: 3000})
	e := DisjI(ConjI(P(vocab[0]), P(vocab[1])), PrecI(P(vocab[2]), P(vocab[0])))
	env := &Env{Base: base}
	wantTS, wantObjs := env.TS(e, now), wantAffected(env, e, now)

	pe, roots := evaluator(base, e)
	var objs []types.OID
	at := now
	for i := 0; i < 150; i++ {
		for k := 0; k < 1+r.Intn(200); k++ {
			at++
			if _, err := base.Append(vocab[r.Intn(len(vocab))], types.OID(1+r.Intn(200)), at); err != nil {
				t.Fatal(err)
			}
		}
		pe.Bind(base, clock.Never) // a new memo generation: TS below is a full lift
		pe.Begin(now)
		if got := pe.TS(roots[0], now, clock.Never); got != wantTS {
			t.Fatalf("lift %d after appends to t%d: ts = %d, want %d", i, at, got, wantTS)
		}
		if objs = pe.AffectedObjects(objs[:0], roots[0], now, clock.Never); !slices.Equal(objs, wantObjs) {
			t.Fatalf("window %d after appends to t%d: %v, want %v", i, at, objs, wantObjs)
		}
		if i%30 == 29 {
			pe.Begin(at)
			if got, want := pe.TS(roots[0], at, clock.Never), env.TS(e, at); got != want {
				t.Fatalf("lift %d at the newest instant t%d: ts = %d, Env says %d", i, at, got, want)
			}
		}
	}
}

// Refs returns the reference count of a node (parents plus rule roots).
func (p *Plan) Refs(id NodeID) int { return int(p.nodes[id].refs) }

// Expr returns the canonical expression of a node.
func (p *Plan) Expr(id NodeID) Expr { return p.nodes[id].expr }
