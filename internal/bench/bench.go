// Package bench implements the measured experiments of EXPERIMENTS.md
// (B1–B5, B9, B10, B12, B14–B16): the performance claims Section 5 of
// the paper makes qualitatively, run on synthetic workloads from
// internal/workload. The chimera-bench command prints the tables; the
// repository-root benchmarks (bench_test.go) expose the same code paths
// to testing.B.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"chimera/internal/act"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/cond"
	"chimera/internal/engine"
	"chimera/internal/event"
	"chimera/internal/metrics"
	"chimera/internal/rules"
	"chimera/internal/schema"
	"chimera/internal/types"
	"chimera/internal/workload"
)

// Table is one experiment's report.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// CSV renders the table as RFC-4180-ish CSV (header row first); the
// chimera-bench -format csv mode emits it for plotting pipelines.
func (t Table) CSV() string {
	var sb strings.Builder
	quote := func(cell string) string {
		if strings.ContainsAny(cell, ",\"\n") {
			return "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
		}
		return cell
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(quote(c))
		}
		sb.WriteString("\n")
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return sb.String()
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// B1 — naive vs V(E)-filtered Trigger Support.

// B1Result carries the raw counters for one configuration.
type B1Result struct {
	Rules         int
	HotFraction   float64
	NaiveTsEvals  int64
	OptTsEvals    int64
	NaiveNs       int64
	OptNs         int64
	SkippedShare  float64
	TriggeringsOK bool
}

// RunB1Config measures one (rules, hotFraction) cell.
func RunB1Config(nRules int, hotFraction float64, blocks, eventsPerBlock int) B1Result {
	vocab := workload.Vocabulary(32)
	defs := workload.Rules(rand.New(rand.NewSource(1)), workload.RuleSetOptions{
		Rules: nRules, Vocab: vocab, TypesPerRule: 3, Depth: 2,
		Negation: true, Precedence: true,
	})
	// Repeat small configurations so the wall-clock column is not noise;
	// the first iteration is warm-up and is not counted.
	reps := 20000 / nRules
	if reps < 3 {
		reps = 3
	}
	if reps > 50 {
		reps = 50
	}
	run := func(opts rules.Options) (workload.RunResult, int64) {
		var res workload.RunResult
		var total int64
		for i := 0; i <= reps; i++ {
			c := clock.New()
			b := event.NewBase()
			s := rules.NewSupport(b, opts)
			s.BeginTransaction(c.Now())
			for _, d := range defs {
				if err := s.Define(d); err != nil {
					panic(err)
				}
			}
			stream := workload.Stream(rand.New(rand.NewSource(2)), c, b, workload.StreamOptions{
				Blocks: blocks, EventsPerBlock: eventsPerBlock,
				Objects: 32, Vocab: vocab, HotFraction: hotFraction,
			})
			start := time.Now()
			res = workload.Drive(s, c, stream, true)
			if i > 0 {
				total += time.Since(start).Nanoseconds()
			}
		}
		return res, total / int64(reps)
	}
	naive, naiveNs := run(rules.Options{})
	opt, optNs := run(rules.Options{UseFilter: true})
	share := 0.0
	if opt.RulesExamined > 0 {
		share = float64(opt.RulesSkipped) / float64(opt.RulesExamined)
	}
	return B1Result{
		Rules: nRules, HotFraction: hotFraction,
		NaiveTsEvals: naive.TsEvaluations, OptTsEvals: opt.TsEvaluations,
		NaiveNs: naiveNs, OptNs: optNs,
		SkippedShare:  share,
		TriggeringsOK: naive.Triggerings == opt.Triggerings,
	}
}

// B1 sweeps rule count and relevant-event fraction.
func B1() Table {
	t := Table{
		ID:     "B1",
		Title:  "Trigger Support: naive recomputation vs V(E) static optimization",
		Header: []string{"rules", "hot%", "ts-evals naive", "ts-evals V(E)", "evals saved", "skip share", "speedup", "same triggerings"},
	}
	for _, nRules := range []int{10, 100, 1000} {
		for _, hot := range []float64{0.05, 0.25, 1.0} {
			r := RunB1Config(nRules, hot, 50, 8)
			saved := 1 - float64(r.OptTsEvals)/float64(r.NaiveTsEvals)
			speedup := float64(r.NaiveNs) / float64(r.OptNs)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(r.Rules),
				fmt.Sprintf("%.0f", hot*100),
				fmt.Sprint(r.NaiveTsEvals),
				fmt.Sprint(r.OptTsEvals),
				fmt.Sprintf("%.1f%%", saved*100),
				fmt.Sprintf("%.1f%%", r.SkippedShare*100),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprint(r.TriggeringsOK),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper §5.1: recompute ts only when an arrival matches V(E); the lower the relevant fraction, the larger the saving",
		"both arms run the one triggering path (the shared plan), with and without the filter; ts-evals count plan nodes evaluated on both sides",
		"'same triggerings' checks the optimization is semantically transparent")
	return t
}

// ---------------------------------------------------------------------
// B2 — ts evaluation cost vs expression depth.

// B2Eval builds a (history, expression) pair for one depth; the root
// bench reuses it under testing.B.
func B2Eval(depth int) (env *calculus.Env, e calculus.Expr, now clock.Time) {
	vocab := workload.Vocabulary(8)
	r := rand.New(rand.NewSource(int64(depth)))
	e = calculus.GenExpr(r, calculus.GenOptions{
		Types: vocab, MaxDepth: depth, Full: true,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true,
	})
	c := clock.New()
	b := event.NewBase()
	workload.Stream(r, c, b, workload.StreamOptions{
		Blocks: 20, EventsPerBlock: 10, Objects: 16, Vocab: vocab,
	})
	return &calculus.Env{Base: b, RestrictDomain: true}, e, c.Now()
}

// B2 measures ns per ts evaluation by depth.
func B2() Table {
	t := Table{
		ID:     "B2",
		Title:  "ts evaluation cost vs expression depth (200 events in R)",
		Header: []string{"depth", "nodes", "ns/eval", "active"},
	}
	for depth := 1; depth <= 8; depth++ {
		env, e, now := B2Eval(depth)
		const iters = 2000
		start := time.Now()
		var v calculus.TS
		for i := 0; i < iters; i++ {
			v = env.TS(e, now)
		}
		ns := time.Since(start).Nanoseconds() / iters
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(depth), fmt.Sprint(calculus.Size(e)),
			fmt.Sprint(ns), fmt.Sprint(v.Active()),
		})
	}
	t.Notes = append(t.Notes,
		"paper §6: 'a formal and efficient evaluation of triggering caused by event expressions of arbitrary complexity'",
		"cost grows with tree size; instance lifts dominate when present")
	return t
}

// ---------------------------------------------------------------------
// B3 — instance-oriented evaluation vs number of distinct objects.

// B3Eval prepares an instance-conjunction lift over a history touching n
// objects. The expression listens on one class out of eight, so most
// objects in R are touched only by foreign types — the regime in which
// restricting the lift domain to the expression's own types pays off.
func B3Eval(objects int) (env *calculus.Env, e calculus.Expr, now clock.Time) {
	vocab := workload.Vocabulary(8)
	r := rand.New(rand.NewSource(9))
	c := clock.New()
	b := event.NewBase()
	workload.Stream(r, c, b, workload.StreamOptions{
		Blocks: 40, EventsPerBlock: 25, Objects: objects, Vocab: vocab,
	})
	e = calculus.ConjI(calculus.P(vocab[0]), calculus.P(vocab[2]))
	return &calculus.Env{Base: b, RestrictDomain: true}, e, c.Now()
}

// B3 measures the lift cost against the object count, with and without
// the domain restriction.
func B3() Table {
	t := Table{
		ID:     "B3",
		Title:  "instance-oriented lift cost vs distinct objects (1000 events in R)",
		Header: []string{"objects", "ns/eval restricted", "ns/eval full-domain", "ratio"},
	}
	for _, objects := range []int{4, 16, 64, 256} {
		env, e, now := B3Eval(objects)
		measure := func(restrict bool) int64 {
			env.RestrictDomain = restrict
			const iters = 500
			start := time.Now()
			for i := 0; i < iters; i++ {
				env.TS(e, now)
			}
			return time.Since(start).Nanoseconds() / iters
		}
		restricted := measure(true)
		full := measure(false)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(objects), fmt.Sprint(restricted), fmt.Sprint(full),
			fmt.Sprintf("%.2fx", float64(full)/float64(restricted)),
		})
	}
	t.Notes = append(t.Notes,
		"paper §5: a sparse per-object structure supports instance-oriented operators; cost scales with the object domain",
		"the restricted domain (objects touched by the expression's own types) is sign-equivalent; computing it costs more than it saves on small object counts and wins about 2x once most objects are foreign to the expression — a crossover, not a uniform win")
	return t
}

// ---------------------------------------------------------------------
// B4 — calculus support vs legacy disjunction-only Chimera.

// B4Result carries one comparison run.
type B4Result struct {
	LegacyNs    int64
	CalculusNs  int64
	Triggerings int
}

// RunB4 drives identical disjunction-only rule sets through original
// Chimera's triggering — each rule listens on a disjunction of primitive
// types, so an arrival triggers its listeners by one type-index lookup,
// with no ts evaluation at all — and through the calculus-based support.
func RunB4(nRules, blocks, eventsPerBlock int) B4Result {
	vocab := workload.Vocabulary(16)
	defs := workload.Rules(rand.New(rand.NewSource(5)), workload.RuleSetOptions{
		Rules: nRules, Vocab: vocab, TypesPerRule: 3, Depth: 0, // disjunction-only
	})

	// Legacy: the type index, every triggered rule considered per block.
	listeners := make(map[event.Type][]int)
	for i, d := range defs {
		for _, t := range calculus.Primitives(d.Event) {
			listeners[t] = append(listeners[t], i)
		}
	}
	cl := clock.New()
	bl := event.NewBase()
	streamL := workload.Stream(rand.New(rand.NewSource(6)), cl, bl, workload.StreamOptions{
		Blocks: blocks, EventsPerBlock: eventsPerBlock, Objects: 16, Vocab: vocab,
	})
	start := time.Now()
	fired := 0
	triggered := make([]bool, len(defs))
	var pending []int
	for _, blk := range streamL {
		for _, occ := range blk {
			for _, i := range listeners[occ.Type] {
				if !triggered[i] {
					triggered[i] = true
					pending = append(pending, i)
				}
			}
		}
		fired += len(pending)
		for _, i := range pending {
			triggered[i] = false
		}
		pending = pending[:0]
	}
	legacyNs := time.Since(start).Nanoseconds()

	// Calculus.
	c := clock.New()
	b := event.NewBase()
	s := rules.NewSupport(b, rules.Options{UseFilter: true})
	s.BeginTransaction(c.Now())
	for _, d := range defs {
		if err := s.Define(d); err != nil {
			panic(err)
		}
	}
	stream := workload.Stream(rand.New(rand.NewSource(6)), c, b, workload.StreamOptions{
		Blocks: blocks, EventsPerBlock: eventsPerBlock, Objects: 16, Vocab: vocab,
	})
	start = time.Now()
	res := workload.Drive(s, c, stream, true)
	calculusNs := time.Since(start).Nanoseconds()
	_ = res
	return B4Result{LegacyNs: legacyNs, CalculusNs: calculusNs, Triggerings: fired}
}

// B4 compares throughput on the original Chimera event language.
func B4() Table {
	t := Table{
		ID:     "B4",
		Title:  "disjunction-only rules: legacy type-index support vs event calculus",
		Header: []string{"rules", "legacy ms", "calculus ms", "overhead"},
	}
	for _, nRules := range []int{10, 100, 1000} {
		r := RunB4(nRules, 50, 8)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nRules),
			fmt.Sprintf("%.2f", float64(r.LegacyNs)/1e6),
			fmt.Sprintf("%.2f", float64(r.CalculusNs)/1e6),
			fmt.Sprintf("%.2fx", float64(r.CalculusNs)/float64(r.LegacyNs)),
		})
	}
	t.Notes = append(t.Notes,
		"paper §1/§6: the extension 'continuously evolves' Chimera — the old disjunctive rules must not become disproportionately slower",
		"the legacy support is a constant-time type index, the theoretical floor")
	return t
}

// ---------------------------------------------------------------------
// B5 — end-to-end engine throughput.

// B5Config selects the rule modes under test.
type B5Config struct {
	Coupling    rules.Coupling
	Consumption rules.Consumption
}

// RunB5 runs transactions of line-batched creates and modifies against
// nRules clamp-style rules and returns ns per transaction.
func RunB5(cfg B5Config, nRules, txns, linesPerTxn int) int64 {
	db := engine.New(engine.DefaultOptions())
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt}); err != nil {
		panic(err)
	}
	evt := calculus.Disj(
		calculus.P(event.Create("stock")),
		calculus.P(event.Modify("stock", "quantity")))
	for i := 0; i < nRules; i++ {
		def := rules.Def{
			Name: fmt.Sprintf("clamp%d", i), Target: "stock", Event: evt,
			Coupling: cfg.Coupling, Consumption: cfg.Consumption, Priority: i,
		}
		body := engine.Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "stock", Var: "S"},
				cond.Occurred{Event: calculus.P(event.Create("stock")), Var: "S"},
				cond.Compare{L: cond.Attr{Var: "S", Attr: "quantity"}, Op: cond.CmpGt,
					R: cond.Attr{Var: "S", Attr: "maxquantity"}},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "stock", Attr: "quantity", Var: "S",
					Value: cond.Attr{Var: "S", Attr: "maxquantity"}},
			}},
		}
		if err := db.DefineRule(def, body); err != nil {
			panic(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	start := time.Now()
	for i := 0; i < txns; i++ {
		err := db.Run(func(tx *engine.Txn) error {
			for l := 0; l < linesPerTxn; l++ {
				if _, err := tx.Create("stock", map[string]types.Value{
					"quantity":    types.Int(int64(r.Intn(100))),
					"maxquantity": types.Int(50),
				}); err != nil {
					return err
				}
				if err := tx.EndLine(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
	}
	return time.Since(start).Nanoseconds() / int64(txns)
}

// B5 reports end-to-end transaction cost across coupling and consumption
// modes.
func B5() Table {
	t := Table{
		ID:     "B5",
		Title:  "end-to-end transactions (5 lines/txn, 10 clamp rules)",
		Header: []string{"coupling", "consumption", "µs/txn"},
	}
	for _, cfg := range []B5Config{
		{rules.Immediate, rules.Consuming},
		{rules.Immediate, rules.Preserving},
		{rules.Deferred, rules.Consuming},
		{rules.Deferred, rules.Preserving},
	} {
		ns := RunB5(cfg, 10, 200, 5)
		t.Rows = append(t.Rows, []string{
			cfg.Coupling.String(), cfg.Consumption.String(),
			fmt.Sprintf("%.1f", float64(ns)/1e3),
		})
	}
	t.Notes = append(t.Notes,
		"deferred coupling batches considerations at commit; preserving consumption re-reads the whole transaction window")
	return t
}

// ---------------------------------------------------------------------
// B9 — long-transaction soak: generational Event Base under consumption
// low-watermark compaction.

// B9Result carries one rule-mix soak; the JSON tags feed BENCH_eb.json.
type B9Result struct {
	Mix           string `json:"mix"`
	Rules         int    `json:"rules"`
	Blocks        int    `json:"blocks"`
	Appended      int    `json:"events_appended"`
	LiveQuarter   int    `json:"live_quarter"`
	LiveEnd       int    `json:"live_end"`
	LivePeak      int    `json:"live_peak"`
	RetiredOccs   int    `json:"retired_occurrences"`
	RetiredSegs   int    `json:"retired_segments"`
	HeapQuarterKB uint64 `json:"heap_quarter_kb"`
	HeapEndKB     uint64 `json:"heap_end_kb"`
	AppendP50Ns   int64  `json:"append_p50_ns"`
	AppendP99Ns   int64  `json:"append_p99_ns"`
	CheckP50Ns    int64  `json:"check_p50_ns"`
	CheckP99Ns    int64  `json:"check_p99_ns"`
	Bounded       bool   `json:"bounded_live_window"`
}

func pctNs(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func heapKB() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc / 1024
}

// RunB9 soaks one long transaction: blocks × eventsPerBlock arrivals
// against nRules two-type disjunction rules, compacting to the
// consumption low-watermark after every block — the engine's flushBlock
// discipline, driven inline so appends and trigger checks can be timed
// individually. The mix selects the preserving share: "consuming" (0%),
// "mixed" (10%), "preserving" (100%).
//
// The rules are disjunctions deliberately: a rule is considered (and its
// window reopened) only when it fires, so the watermark chases the
// stream only if every consuming rule keeps firing. A narrow vocabulary
// and two-type disjunctions make every rule hot in nearly every block.
// A rule that goes permanently dormant — e.g. A + -B after a B lands in
// its open window — pins the watermark at its last consideration
// forever; that regime is the preserving rows' job to show.
func RunB9(mix string, nRules, blocks, eventsPerBlock int) B9Result {
	var preservingShare float64
	switch mix {
	case "consuming":
		preservingShare = 0
	case "mixed":
		preservingShare = 0.1
	case "preserving":
		preservingShare = 1
	default:
		panic("unknown B9 mix " + mix)
	}
	vocab := workload.Vocabulary(8)
	r := rand.New(rand.NewSource(51))
	c := clock.New()
	b := event.NewBase()
	s := rules.NewSupport(b, rules.Options{UseFilter: true})
	s.BeginTransaction(c.Now())
	for i := 0; i < nRules; i++ {
		cons := rules.Consuming
		if float64(i) < preservingShare*float64(nRules) {
			cons = rules.Preserving
		}
		ai := r.Intn(len(vocab))
		bi := (ai + 1 + r.Intn(len(vocab)-1)) % len(vocab) // distinct second type
		d := rules.Def{
			Name:        fmt.Sprintf("r%04d", i),
			Event:       calculus.Disj(calculus.P(vocab[ai]), calculus.P(vocab[bi])),
			Consumption: cons,
			Priority:    i,
		}
		if err := s.Define(d); err != nil {
			panic(err)
		}
	}
	appendNs := make([]int64, 0, blocks*eventsPerBlock)
	checkNs := make([]int64, 0, blocks)
	occs := make([]event.Occurrence, 0, eventsPerBlock)
	res := B9Result{Mix: mix, Rules: nRules, Blocks: blocks}
	for block := 0; block < blocks; block++ {
		occs = occs[:0]
		for i := 0; i < eventsPerBlock; i++ {
			ty := vocab[r.Intn(len(vocab))]
			oid := types.OID(1 + r.Intn(16))
			at := c.Tick()
			t0 := time.Now()
			occ, err := b.Append(ty, oid, at)
			appendNs = append(appendNs, time.Since(t0).Nanoseconds())
			if err != nil {
				panic(err)
			}
			occs = append(occs, occ)
		}
		s.NotifyArrivals(occs)
		t0 := time.Now()
		fired := s.CheckTriggered(c.Now())
		checkNs = append(checkNs, time.Since(t0).Nanoseconds())
		for _, name := range fired {
			if _, err := s.Consider(name, c.Tick()); err != nil {
				panic(err)
			}
		}
		b.CompactBelow(s.Watermark())
		if live := b.Len(); live > res.LivePeak {
			res.LivePeak = live
		}
		if block == blocks/4 {
			res.LiveQuarter = b.Len()
			res.HeapQuarterKB = heapKB()
		}
	}
	res.Appended = b.Appended()
	res.LiveEnd = b.Len()
	res.RetiredOccs = b.Retired()
	res.RetiredSegs = b.RetiredSegments()
	res.HeapEndKB = heapKB()
	sortNs := func(ns []int64) {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	sortNs(appendNs)
	sortNs(checkNs)
	res.AppendP50Ns = pctNs(appendNs, 0.50)
	res.AppendP99Ns = pctNs(appendNs, 0.99)
	res.CheckP50Ns = pctNs(checkNs, 0.50)
	res.CheckP99Ns = pctNs(checkNs, 0.99)
	// Bounded: the live window plateaued well below the appended total —
	// steady-state memory tracks the rule horizon, not transaction length.
	res.Bounded = res.RetiredOccs > 0 && res.LivePeak*4 <= res.Appended
	return res
}

// B9Results runs the soak for the three rule mixes.
func B9Results() []B9Result {
	var out []B9Result
	for _, mix := range []string{"consuming", "mixed", "preserving"} {
		out = append(out, RunB9(mix, 100, 3000, 8))
	}
	return out
}

// B9FromResults renders the table for a precomputed soak, so the -json
// emission path does not run the experiment twice.
func B9FromResults(rs []B9Result) Table {
	t := Table{
		ID:     "B9",
		Title:  "long-transaction soak: segmented Event Base + low-watermark compaction",
		Header: []string{"mix", "appended", "live ¼", "live end", "live peak", "retired", "segs", "heap ¼ KB", "heap end KB", "append p50/p99 ns", "check p50/p99 µs", "bounded"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.Mix, fmt.Sprint(r.Appended),
			fmt.Sprint(r.LiveQuarter), fmt.Sprint(r.LiveEnd), fmt.Sprint(r.LivePeak),
			fmt.Sprint(r.RetiredOccs), fmt.Sprint(r.RetiredSegs),
			fmt.Sprint(r.HeapQuarterKB), fmt.Sprint(r.HeapEndKB),
			fmt.Sprintf("%d/%d", r.AppendP50Ns, r.AppendP99Ns),
			fmt.Sprintf("%.1f/%.1f", float64(r.CheckP50Ns)/1e3, float64(r.CheckP99Ns)/1e3),
			fmt.Sprint(r.Bounded),
		})
	}
	t.Notes = append(t.Notes,
		"all-consuming: every rule's window reopens at its last consideration, the watermark chases the newest block, and whole segments retire — the live window plateaus at the rule horizon regardless of transaction length",
		"a single preserving rule pins the watermark at the transaction start (its window is the whole transaction), so 'mixed' retires nothing — the linear growth is the semantics' price, not a leak",
		"append is amortized O(1) into the tail segment; p99 absorbs the occasional segment seal")
	return t
}

// B9 runs the soak and renders its table.
func B9() Table { return B9FromResults(B9Results()) }

// ---------------------------------------------------------------------
// B10 — observability overhead: metrics registry and span tracer on the
// end-to-end engine path, against the compiled-in-but-disabled baseline.

// B10Result carries one configuration of the overhead run; the JSON tags
// feed BENCH_obs.json.
type B10Result struct {
	Config       string  `json:"config"`
	UsPerTxn     float64 `json:"us_per_txn"`
	OverheadPct  float64 `json:"overhead_vs_off_pct"`
	Events       int64   `json:"events"`
	Executions   int64   `json:"rule_executions"`
	MetricSeries int     `json:"metric_series"`
	Spans        int64   `json:"spans"`
}

// obsCountTracer is the cheapest possible consumer of every span — the
// tracer-enabled rows measure dispatch cost, not consumer cost.
type obsCountTracer struct {
	engine.NopTracer
	spans int64
}

func (t *obsCountTracer) BlockStart(events int)               { t.spans++ }
func (t *obsCountTracer) BlockEnd(events int, fired []string) { t.spans++ }
func (t *obsCountTracer) SweepStart(at clock.Time)            { t.spans++ }
func (t *obsCountTracer) SweepEnd(examined, fired int)        { t.spans++ }
func (t *obsCountTracer) Executed(rule string)                { t.spans++ }

// runB10Config drives the B5-style clamp workload (creates + modifies
// through real transactions, so the engine, Trigger Support and Event
// Base layers are all on the path) under one observability setting and
// returns ns/txn plus the database for counter inspection.
func runB10Config(reg *metrics.Registry, tracer engine.Tracer, nRules, txns, linesPerTxn int) (int64, *engine.DB) {
	opts := engine.DefaultOptions()
	opts.Metrics = reg
	db := engine.New(opts)
	if tracer != nil {
		db.SetTracer(tracer)
	}
	if err := db.DefineClass("stock",
		schema.Attribute{Name: "quantity", Kind: types.KindInt},
		schema.Attribute{Name: "maxquantity", Kind: types.KindInt}); err != nil {
		panic(err)
	}
	evt := calculus.Disj(
		calculus.P(event.Create("stock")),
		calculus.P(event.Modify("stock", "quantity")))
	for i := 0; i < nRules; i++ {
		def := rules.Def{
			Name: fmt.Sprintf("clamp%d", i), Target: "stock", Event: evt, Priority: i,
		}
		body := engine.Body{
			Condition: cond.Formula{Atoms: []cond.Atom{
				cond.Class{Class: "stock", Var: "S"},
				cond.Occurred{Event: calculus.P(event.Create("stock")), Var: "S"},
				cond.Compare{L: cond.Attr{Var: "S", Attr: "quantity"}, Op: cond.CmpGt,
					R: cond.Attr{Var: "S", Attr: "maxquantity"}},
			}},
			Action: act.Action{Statements: []act.Statement{
				act.Modify{Class: "stock", Attr: "quantity", Var: "S",
					Value: cond.Attr{Var: "S", Attr: "maxquantity"}},
			}},
		}
		if err := db.DefineRule(def, body); err != nil {
			panic(err)
		}
	}
	r := rand.New(rand.NewSource(61))
	start := time.Now()
	for i := 0; i < txns; i++ {
		err := db.Run(func(tx *engine.Txn) error {
			for l := 0; l < linesPerTxn; l++ {
				if _, err := tx.Create("stock", map[string]types.Value{
					"quantity":    types.Int(int64(r.Intn(100))),
					"maxquantity": types.Int(50),
				}); err != nil {
					return err
				}
				if err := tx.EndLine(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
	}
	return time.Since(start).Nanoseconds() / int64(txns), db
}

// B10Results measures the three observability settings. Each setting
// runs reps times and keeps the fastest (minimum) — overheads of a few
// percent drown in scheduler noise otherwise.
func B10Results() []B10Result {
	const nRules, txns, lines, reps = 10, 200, 5, 7
	type setting struct {
		name   string
		reg    func() *metrics.Registry
		tracer func() engine.Tracer
	}
	settings := []setting{
		{"off", func() *metrics.Registry { return nil }, func() engine.Tracer { return nil }},
		{"metrics", metrics.NewRegistry, func() engine.Tracer { return nil }},
		{"metrics+tracer", metrics.NewRegistry, func() engine.Tracer { return &obsCountTracer{} }},
	}
	out := make([]B10Result, 0, len(settings))
	var baseNs int64
	for _, set := range settings {
		best := int64(0)
		var lastDB *engine.DB
		var lastTracer engine.Tracer
		for rep := 0; rep <= reps; rep++ {
			tr := set.tracer()
			ns, db := runB10Config(set.reg(), tr, nRules, txns, lines)
			if rep == 0 {
				continue // warm-up
			}
			if best == 0 || ns < best {
				best = ns
			}
			lastDB, lastTracer = db, tr
		}
		res := B10Result{
			Config:     set.name,
			UsPerTxn:   float64(best) / 1e3,
			Events:     lastDB.Stats().Events,
			Executions: lastDB.Stats().RuleExecutions,
		}
		if set.name == "off" {
			baseNs = best
		} else {
			res.OverheadPct = 100 * (float64(best)/float64(baseNs) - 1)
		}
		if reg := lastDB.Metrics(); reg != nil {
			snap := reg.Snapshot()
			res.MetricSeries = len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
		}
		if ct, ok := lastTracer.(*obsCountTracer); ok {
			res.Spans = ct.spans
		}
		out = append(out, res)
	}
	return out
}

// B10FromResults renders the table for a precomputed run, so the -json
// emission path does not run the experiment twice.
func B10FromResults(rs []B10Result) Table {
	t := Table{
		ID:     "B10",
		Title:  "observability overhead: metrics + tracer vs compiled-in-but-disabled",
		Header: []string{"config", "µs/txn", "overhead", "events", "executions", "series", "spans"},
	}
	for _, r := range rs {
		overhead := "—"
		if r.Config != "off" {
			overhead = fmt.Sprintf("%+.1f%%", r.OverheadPct)
		}
		t.Rows = append(t.Rows, []string{
			r.Config, fmt.Sprintf("%.1f", r.UsPerTxn), overhead,
			fmt.Sprint(r.Events), fmt.Sprint(r.Executions),
			fmt.Sprint(r.MetricSeries), fmt.Sprint(r.Spans),
		})
	}
	t.Notes = append(t.Notes,
		"'off' is the zero-overhead claim under test: instruments compiled in, Options.Metrics nil, every report site one branch-predictable nil check (DESIGN.md §9)",
		"the differential suite (internal/engine) pins all three configurations to identical semantics; this table prices them",
		"minimum of 7 runs per row — percent-level deltas drown in scheduler noise otherwise")
	return t
}

// B10 runs the overhead measurement and renders its table.
func B10() Table { return B10FromResults(B10Results()) }

// All runs every experiment.
func All() []Table {
	return []Table{B1(), B2(), B3(), B4(), B5(), B9(), B10(), B12(), B14(), B15(), B16()}
}

// ByID runs one experiment.
func ByID(id string) (Table, bool) {
	switch strings.ToUpper(id) {
	case "B1":
		return B1(), true
	case "B2":
		return B2(), true
	case "B3":
		return B3(), true
	case "B4":
		return B4(), true
	case "B5":
		return B5(), true
	case "B9":
		return B9(), true
	case "B10":
		return B10(), true
	case "B12":
		return B12(), true
	case "B14":
		return B14(), true
	case "B15":
		return B15(), true
	case "B16":
		return B16(), true
	}
	return Table{}, false
}
