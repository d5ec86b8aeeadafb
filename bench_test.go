package chimera_test

// Benchmarks for the paper's measured experiments of EXPERIMENTS.md
// (B1–B5) plus micro-benchmarks of the core calculus. The chimera-bench command
// prints the corresponding human-readable tables; these expose the same
// code paths to `go test -bench`.

import (
	"fmt"
	"math/rand"
	"testing"

	"chimera"
	"chimera/internal/bench"
	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/figures"
	"chimera/internal/lang"
	"chimera/internal/rules"
	"chimera/internal/workload"
)

// B1 — Trigger Support: naive recomputation vs the V(E) static
// optimization, on a workload where 5% of the vocabulary is hot.
func BenchmarkTriggerSupport(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts rules.Options
	}{
		{"naive", rules.Options{}},
		{"vE-filter", rules.Options{UseFilter: true}},
	} {
		for _, nRules := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/rules=%d", mode.name, nRules), func(b *testing.B) {
				vocab := workload.Vocabulary(32)
				defs := workload.Rules(rand.New(rand.NewSource(1)), workload.RuleSetOptions{
					Rules: nRules, Vocab: vocab, TypesPerRule: 3, Depth: 2,
					Negation: true, Precedence: true,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := clock.New()
					base := event.NewBase()
					s := rules.NewSupport(base, mode.opts)
					s.BeginTransaction(c.Now())
					for _, d := range defs {
						if err := s.Define(d); err != nil {
							b.Fatal(err)
						}
					}
					stream := workload.Stream(rand.New(rand.NewSource(2)), c, base, workload.StreamOptions{
						Blocks: 20, EventsPerBlock: 8, Objects: 32, Vocab: vocab, HotFraction: 0.05,
					})
					workload.Drive(s, c, stream, true)
				}
			})
		}
	}
}

// B2 — ts evaluation cost vs expression depth.
func BenchmarkTsEvalDepth(b *testing.B) {
	for depth := 1; depth <= 8; depth++ {
		env, e, now := bench.B2Eval(depth)
		b.Run(fmt.Sprintf("depth=%d/nodes=%d", depth, calculus.Size(e)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.TS(e, now)
			}
		})
	}
}

// B3 — instance-oriented lift cost vs the number of distinct objects,
// with and without the sign-preserving domain restriction.
func BenchmarkInstanceEval(b *testing.B) {
	for _, objects := range []int{4, 16, 64, 256} {
		env, e, now := bench.B3Eval(objects)
		b.Run(fmt.Sprintf("restricted/objects=%d", objects), func(b *testing.B) {
			env.RestrictDomain = true
			for i := 0; i < b.N; i++ {
				env.TS(e, now)
			}
		})
		b.Run(fmt.Sprintf("fulldomain/objects=%d", objects), func(b *testing.B) {
			env.RestrictDomain = false
			for i := 0; i < b.N; i++ {
				env.TS(e, now)
			}
		})
	}
}

// B4 — disjunction-only rules through the legacy type index and the
// calculus-based support (one RunB4 call drives both).
func BenchmarkLegacyVsCalculus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunB4(100, 20, 8)
	}
}

// B5 — end-to-end transactions across coupling and consumption modes.
func BenchmarkEngineEndToEnd(b *testing.B) {
	for _, cfg := range []bench.B5Config{
		{Coupling: rules.Immediate, Consumption: rules.Consuming},
		{Coupling: rules.Immediate, Consumption: rules.Preserving},
		{Coupling: rules.Deferred, Consumption: rules.Consuming},
		{Coupling: rules.Deferred, Consumption: rules.Preserving},
	} {
		b.Run(fmt.Sprintf("%s-%s", cfg.Coupling, cfg.Consumption), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.RunB5(cfg, 10, 20, 5)
			}
		})
	}
}

// Steady-state CheckTriggered on rules that never fire: after warmup
// the call recycles every buffer, so allocs/op must report 0 (the test
// suite asserts this; the benchmark shows it alongside the per-call
// cost).
func BenchmarkCheckSteadyState(b *testing.B) {
	vocab := workload.Vocabulary(4)
	c := clock.New()
	base := event.NewBase()
	s := rules.NewSupport(base, rules.Options{UseFilter: true})
	s.BeginTransaction(c.Now())
	for i := 0; i < 8; i++ {
		// Conjunction with an unseen type: probed, never fires.
		def := rules.Def{
			Name: fmt.Sprintf("r%02d", i),
			Event: calculus.Conj(
				calculus.P(vocab[i%len(vocab)]),
				calculus.P(event.Create("never"))),
			Priority: i,
		}
		if err := s.Define(def); err != nil {
			b.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		if _, err := base.Append(vocab[r.Intn(len(vocab))], 1, c.Tick()); err != nil {
			b.Fatal(err)
		}
	}
	s.CheckTriggered(c.Now()) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CheckTriggered(c.Now())
	}
}

// Figure 5 regeneration cost (the six sampled ts curves).
func BenchmarkFigure5Series(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Figure5()
	}
}

// Static optimization: compiling V(E) for a depth-5 expression.
func BenchmarkVariationCompile(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	e := calculus.GenExpr(r, calculus.GenOptions{
		Types: calculus.DefaultVocabulary(), MaxDepth: 5,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calculus.Compile(e)
	}
}

// Parser throughput on the paper's example rule.
func BenchmarkParseRule(b *testing.B) {
	src := `
define immediate checkStockQty for stock
events create
condition stock(S), occurred(create, S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end`
	for i := 0; i < b.N; i++ {
		if _, err := lang.ParseRule(src); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end cost of the paper's quickstart through the public API.
func BenchmarkQuickstartTransaction(b *testing.B) {
	db := chimera.Open()
	chimera.MustLoad(db, `
class stock(name: string, quantity: integer, maxquantity: integer)
define immediate checkStockQty for stock
events create
condition stock(S), occurred(create, S), S.quantity > S.maxquantity
action modify(stock.quantity, S, S.maxquantity)
end`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Run(func(tx *chimera.Txn) error {
			_, err := tx.Create("stock", chimera.Values{
				"quantity": chimera.Int(99), "maxquantity": chimera.Int(40)})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
