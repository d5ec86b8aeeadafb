package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// TestSharedPlanMatchesReference is the oracle differential suite: over
// randomized rule sets with forced subexpression overlap (a small
// fragment pool spliced into every other rule), the production support
// must fire the identical rule set at identical activation instants as
// the per-rule oracle, which has no V(E) filter — on segments of 1, 2 and
// 256 occurrences, compacting below its watermark, and with rules
// defined and dropped between transactions. The horizons shapes
// give every rule of a wider set — copies of one expression, match-all
// rules, precedence and instance lifts among them — a consideration
// horizon of its own before every other check, so one arrival walk and
// one memo serve at least 64 horizons, and cut checks short with a
// budget in the middle of the walk.
func TestSharedPlanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	vocab := calculus.DefaultVocabulary()
	gen := calculus.GenOptions{Types: vocab, MaxDepth: 3,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	fragGen := calculus.GenOptions{Types: vocab, MaxDepth: 2,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}

	type variant struct {
		mk maker
		w  replayOpts
	}
	var layouts []variant
	for _, seg := range []int{1, 2, 256} {
		layouts = append(layouts, variant{production, replayOpts{segSize: seg}})
	}
	// Each workload shape is replayed once through the oracle and then
	// through every production variant of that shape.
	seen := &exercised{}
	spread := func(w replayOpts) replayOpts {
		w.spread, w.kill, w.considerAll, w.seen = true, true, true, seen
		return w
	}
	shapes := []struct {
		name string
		wide bool
		ref  replayOpts
		prod []variant
	}{
		{"picks", false, replayOpts{}, layouts},
		{"churn", false, replayOpts{churn: true}, []variant{
			{production, replayOpts{churn: true, segSize: 2}},
		}},
		{"compacting", false, replayOpts{considerAll: true}, []variant{
			{production, replayOpts{considerAll: true, compact: true, segSize: 1}},
			{production, replayOpts{considerAll: true, compact: true, segSize: 4}},
		}},
		{"horizons", true, spread(replayOpts{}), []variant{
			{production, spread(replayOpts{segSize: 1, compact: true})},
			{production, spread(replayOpts{segSize: 2, compact: true})},
			{production, spread(replayOpts{segSize: 256, compact: true})},
			{production, spread(replayOpts{segSize: 256})},
		}},
		{"horizons-churn", true, spread(replayOpts{churn: true}), []variant{
			{production, spread(replayOpts{churn: true, segSize: 1, compact: true})},
			{production, spread(replayOpts{churn: true, segSize: 2})},
			{production, spread(replayOpts{churn: true, segSize: 256})},
		}},
	}

	for trial := 0; trial < 10; trial++ {
		// A pool of fragments shared across rules: with 4 fragments over
		// 40 rules every fragment serves ~5 rules, so the DAG genuinely
		// dedups and any memo-poisoning bug would surface as a firing
		// divergence.
		pool := make([]calculus.Expr, 4)
		for i := range pool {
			pool[i] = calculus.GenExpr(r, fragGen)
		}
		defs := make([]Def, 40)
		for i := range defs {
			e := calculus.GenExpr(r, gen)
			if i%2 == 0 {
				e = calculus.Disj(e, pool[r.Intn(len(pool))])
			}
			defs[i] = Def{
				Name:     fmt.Sprintf("r%02d", i),
				Event:    e,
				Priority: i % 5,
			}
		}
		wide := append(slices.Clone(defs), wideDefs(r, vocab, pool)...)
		seed := r.Int63()
		for _, sh := range shapes {
			ds := defs
			if sh.wide {
				ds = wide
			}
			want := replay(t, reference, ds, vocab, seed, 8, sh.ref)
			for i, v := range sh.prod {
				got := replay(t, v.mk, ds, vocab, seed, 8, v.w)
				sameFirings(t, fmt.Sprintf("trial %d %s variant %d %+v", trial, sh.name, i, v.w), want, got)
			}
		}
	}
	if seen.horizons < 64 {
		t.Errorf("the widest check saw %d distinct horizons, want at least 64", seen.horizons)
	}
	if seen.midWalkKills == 0 {
		t.Error("no budget fault cut an arrival walk short")
	}
}

// wideDefs is the horizons shapes' addition to a trial's rule set: each
// pool fragment again under four names (one DAG root, four horizons),
// match-all rules, precedence whose left operand is probed at a
// historical instant, and instance-rooted lifts.
func wideDefs(r *rand.Rand, vocab []event.Type, pool []calculus.Expr) []Def {
	prim := func() calculus.Expr { return calculus.P(vocab[r.Intn(len(vocab))]) }
	var exprs []calculus.Expr
	for _, f := range pool {
		exprs = append(exprs, f, f, f, f)
	}
	for i := 0; i < 8; i++ {
		exprs = append(exprs,
			calculus.Neg(prim()),
			calculus.NegI(prim()),
			calculus.Prec(prim(), calculus.Conj(prim(), calculus.Neg(prim()))),
			calculus.Prec(calculus.Disj(prim(), prim()), prim()),
			calculus.ConjI(prim(), prim()),
			calculus.PrecI(prim(), prim()))
	}
	defs := make([]Def, len(exprs))
	for i, e := range exprs {
		defs[i] = Def{Name: fmt.Sprintf("w%02d", i), Event: e, Priority: i % 3}
	}
	return defs
}

// TestSharedPlanStatsAccounting: with heavy overlap the memo must record
// hits, and TsEvaluations must equal MemoMisses (shared runs count node
// evaluations, and every counted evaluation is by definition a miss).
func TestSharedPlanStatsAccounting(t *testing.T) {
	shared := calculus.Conj(calculus.P(createStock), calculus.P(modStockQty))
	defs := make([]Def, 8)
	for i := range defs {
		defs[i] = Def{Name: fmt.Sprintf("r%d", i),
			Event: calculus.Disj(shared, calculus.P(modShowQty))}
	}
	s, b, c := newSupport(t, defs...)
	log(t, s, b, c, createStock, 1)
	s.CheckTriggered(c.Now())
	st := s.Stats()
	if st.MemoHits == 0 {
		t.Fatalf("8 structurally identical rules produced no memo hits: %+v", st)
	}
	if st.TsEvaluations != st.MemoMisses {
		t.Fatalf("TsEvaluations = %d, MemoMisses = %d; must be equal",
			st.TsEvaluations, st.MemoMisses)
	}
	// The 8 roots intern to one tree: hits should dwarf misses.
	if st.MemoHits < st.MemoMisses {
		t.Errorf("hits = %d < misses = %d despite 8-way sharing", st.MemoHits, st.MemoMisses)
	}
}

// TestSharedPlanDefineDropLifecycle: rule churn must keep the DAG's
// refcounts exact — shared nodes survive partial drops, and dropping
// every owner empties the plan.
func TestSharedPlanDefineDropLifecycle(t *testing.T) {
	s := NewSupport(nil, Options{})
	shared := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	if err := s.Define(Def{Name: "a", Event: calculus.Disj(shared, calculus.P(modShowQty))}); err != nil {
		t.Fatal(err)
	}
	if err := s.Define(Def{Name: "b", Event: shared}); err != nil {
		t.Fatal(err)
	}
	p := s.Plan()
	if p.Shared() == 0 {
		t.Fatal("two rules over one conjunction: no shared nodes")
	}
	if err := s.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if p.Live() == 0 {
		t.Fatal("dropping one owner emptied the plan")
	}
	if err := s.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if p.Live() != 0 {
		t.Fatalf("all rules dropped but %d nodes live", p.Live())
	}
}

// TestCheckTriggeredSteadyStateAllocs pins the zero-allocation property
// of the triggering hot path: once buffers are warm, a boundary check
// allocates nothing. The filter is always on, so the one configuration
// is the filtered shared plan.
func TestCheckTriggeredSteadyStateAllocs(t *testing.T) {
	t.Run("shared-filtered", func(t *testing.T) {
		quietCheckAllocatesNothing(t, event.NewBase())
	})
	t.Run("instance-lift", liftCheckAllocatesNothing)
}

// liftCheckAllocatesNothing defines `A < (B += C)` rules whose A never
// occurs, over a window where B and C keep hitting the same objects, at
// horizons in no order, so the check's lifts both read their leaf set's
// kept fold and refold below it, and rewinds the rules before each check
// so every check re-walks the whole window and folds the lift at each of
// its instants: once the fold's tables and arena are warm, a check
// allocates nothing. So does AffectedObjects into a recycled buffer.
func liftCheckAllocatesNothing(t *testing.T) {
	never := event.Delete("stock")
	lift := calculus.ConjI(calculus.P(modStockQty), calculus.P(createStock))
	horizons := []clock.Time{0, 200, 100, 450, 300, 50}
	defs := make([]Def, len(horizons))
	for i := range horizons {
		a := []event.Type{never, event.Delete("show")}[i%2]
		defs[i] = Def{Name: fmt.Sprintf("r%d", i), Priority: i, Event: calculus.Prec(calculus.P(a), lift)}
	}
	s, b, c := newSupport(t, defs...)
	origin := c.Now()
	for i := 0; i < 600; i++ { // spans 3 segments at the default size
		ty := createStock
		if i%3 != 0 {
			ty = modStockQty
		}
		if _, err := b.Append(ty, types.OID(i%7+1), c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	now := c.Tick()
	s.sync()
	for r, h := range horizons {
		s.marks[r].lastConsideration = origin + h
	}
	s.stale = true
	rewind := func() {
		s.sync()
		for r := range s.marks {
			m := &s.marks[r]
			m.lastProbe, m.pending = origin, false
			s.arrive(int32(r)) // back on the worklist
		}
	}
	for i := 0; i < 3; i++ {
		rewind()
		if fired := s.CheckTriggered(now); len(fired) != 0 {
			t.Fatalf("fired %v", fired)
		}
	}
	before := s.Stats()
	if allocs := testing.AllocsPerRun(20, func() {
		rewind()
		s.CheckTriggered(now)
	}); allocs != 0 {
		t.Errorf("checks folding an instance lift allocate %.1f objects/op in steady state, want 0", allocs)
	}
	if after := s.Stats(); after.TsEvaluations == before.TsEvaluations || after.MemoHits == before.MemoHits {
		t.Fatal("the rewound checks evaluated nothing, or read no kept fold")
	}

	// The lift, and a vacuously active node, whose query ranges over
	// every object of the window.
	plan := calculus.NewPlan()
	pe := calculus.NewPlanEval(plan)
	for _, e := range []calculus.Expr{lift, calculus.NegI(calculus.P(never))} {
		id := plan.Intern(e)
		pe.Bind(b, origin)
		objs := pe.AffectedObjects(nil, id, now, origin)
		if len(objs) != 7 {
			t.Fatalf("affected objects of %s: %v, want the 7 objects", e, objs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			objs = pe.AffectedObjects(objs[:0], id, now, origin)
		}); allocs != 0 {
			t.Errorf("AffectedObjects of %s into a recycled buffer allocates %.1f objects/op, want 0", e, allocs)
		}
	}
}

// TestCheckFoldsOncePerLeafSet puts K monotone lift rules over L leaf
// sets — A += B, its commuted form, A ,= B and A <= B over each pair — at
// K distinct horizons into one check. Every rule lifts once at the check
// instant and no two share a horizon, so no node memo entry serves
// another rule: every memo hit is a lift reading its leaf set's kept
// fold. With horizons ascending in rank order, the first rule over each
// set folds it and every other reads it, L folds in all; descending,
// every lift lies below the kept fold and folds at its own horizon. Both
// trigger exactly the rules the definition does.
func TestCheckFoldsOncePerLeafSet(t *testing.T) {
	createShow, delStock := event.Create("show"), event.Delete("stock")
	pairs := [][2]event.Type{{createStock, modStockQty}, {modStockQty, delStock}, {createShow, modShowQty}}
	shapes := []func(a, b calculus.Expr) calculus.Expr{
		func(a, b calculus.Expr) calculus.Expr { return calculus.ConjI(a, b) },
		func(a, b calculus.Expr) calculus.Expr { return calculus.ConjI(b, a) },
		func(a, b calculus.Expr) calculus.Expr { return calculus.DisjI(a, b) },
		func(a, b calculus.Expr) calculus.Expr { return calculus.PrecI(a, b) },
	}
	for _, ascending := range []bool{true, false} {
		var exprs []calculus.Expr
		var defs []Def
		for _, shape := range shapes {
			for _, p := range pairs {
				e := shape(calculus.P(p[0]), calculus.P(p[1]))
				exprs = append(exprs, e)
				defs = append(defs, Def{Name: fmt.Sprintf("r%02d", len(defs)), Priority: len(defs), Event: e})
			}
		}
		k := len(defs)
		s, b, c := newSupport(t, defs...)
		origin := c.Now()
		for i := 0; i < 3*k; i++ {
			p := pairs[i%len(pairs)]
			log(t, s, b, c, p[i/len(pairs)%2], types.OID(i%5+1))
		}
		now := c.Tick()
		s.sync()
		for r := range s.marks {
			h := origin + clock.Time(r)
			if !ascending {
				h = origin + clock.Time(k-1-r)
			}
			s.marks[r].lastConsideration, s.marks[r].lastProbe = h, h
		}
		s.stale = true
		before := s.Stats()
		s.CheckTriggered(now)
		hits := s.Stats().MemoHits - before.MemoHits
		if want := int64(k - len(pairs)); ascending && hits != want {
			t.Errorf("%d rules over %d leaf sets, horizons ascending: %d folds read again, want %d", k, len(pairs), hits, want)
		}
		if !ascending && hits != 0 {
			t.Errorf("%d rules over %d leaf sets, horizons descending: %d folds read again, want 0", k, len(pairs), hits)
		}
		triggered := 0
		for r, e := range exprs {
			m := &s.marks[r]
			if m.triggered {
				triggered++
			}
			if want := (&calculus.Env{Base: b, Since: m.lastConsideration}).TS(e, now).Active(); m.triggered != want {
				t.Errorf("ascending %v: %s since %d triggered %v, want %v", ascending, e, m.lastConsideration, m.triggered, want)
			}
		}
		if triggered == 0 {
			t.Errorf("ascending %v: no rule triggered", ascending)
		}
	}
}

// quietCheckAllocatesNothing defines rules that never trigger — a
// monotone conjunction missing one conjunct, and a negated form inactive
// once its type arrived — and requires a warm boundary check over b to
// allocate nothing. With no arrival between checks the batch is empty.
func quietCheckAllocatesNothing(t *testing.T, b *event.Base) {
	t.Helper()
	mono := calculus.Conj(calculus.P(createStock), calculus.P(modShowQty))
	nonMono := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(createStock)))
	defs := make([]Def, 6)
	for i := range defs {
		e := mono
		if i%2 == 1 {
			e = nonMono
		}
		defs[i] = Def{Name: fmt.Sprintf("r%d", i), Event: e}
	}
	c := clock.New()
	s := supportWith(t, defs).NewSession(b, c.Now())
	defer s.Release()
	for i := 0; i < 10; i++ {
		if _, err := b.Append(createStock, 1, c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every recycled buffer (fired slice, group buffers, memo
	// tables).
	for i := 0; i < 3; i++ {
		s.CheckTriggered(c.Tick())
	}
	allocs := testing.AllocsPerRun(50, func() {
		s.CheckTriggered(c.Tick())
	})
	if allocs != 0 {
		t.Errorf("steady-state CheckTriggered allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSharedPlanFiredSliceRecycled: the returned slice is reused across
// checks (documented contract), so two consecutive boundaries with
// firings must hand back the same backing array.
func TestSharedPlanFiredSliceRecycled(t *testing.T) {
	s, b, c := newSupport(t, Def{Name: "r", Event: calculus.P(createStock), Consumption: Consuming})
	log(t, s, b, c, createStock, 1)
	first := s.CheckTriggered(c.Now())
	if len(first) != 1 {
		t.Fatalf("fired = %v", first)
	}
	if _, err := s.Consider("r", c.Tick()); err != nil {
		t.Fatal(err)
	}
	log(t, s, b, c, createStock, 2)
	second := s.CheckTriggered(c.Now())
	if len(second) != 1 {
		t.Fatalf("second fired = %v", second)
	}
	if &first[0] != &second[0] {
		t.Error("fired slice was reallocated between checks")
	}
}

// TestMemoSharedAcrossHorizons: rules at different consideration
// horizons share one memo. Eight copies of one expression, each
// considered at an instant of its own, probe the arrival that triggers
// them all; the first computes the DAG and the other seven read it back,
// because every node's value holds for every horizon below the arrival.
func TestMemoSharedAcrossHorizons(t *testing.T) {
	e := calculus.Conj(calculus.P(createStock), calculus.Neg(calculus.P(modStockQty)))
	defs := make([]Def, 8)
	for i := range defs {
		defs[i] = Def{Name: fmt.Sprintf("r%d", i), Event: e}
	}
	s, b, c := newSupport(t, defs...)
	for i := 0; i < 8; i++ {
		log(t, s, b, c, modShowQty, 1)
		if _, err := s.Consider(fmt.Sprintf("r%d", i), c.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	log(t, s, b, c, createStock, 1)
	if fired := s.CheckTriggered(c.Now()); len(fired) != 8 {
		t.Fatalf("fired %v, want all eight", fired)
	}
	if st := s.Stats(); st.MemoHits < 7 {
		t.Errorf("eight horizons, one expression: %d memo hits, %d misses; want the seven later rules served from the memo", st.MemoHits, st.MemoMisses)
	}
}
