// Package workload generates synthetic rule sets and event streams for
// the benchmark harness. The paper reports no measured workloads, so
// these generators encode the parameters its Section 5 motivates
// qualitatively: the number of rules, the fraction of arrivals relevant
// to each rule, the operator mix and depth of the triggering
// expressions, and the number of distinct objects (which drives the
// instance-oriented sparse structure).
package workload

import (
	"fmt"
	"math/rand"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/rules"
	"chimera/internal/types"
)

// Vocabulary builds a primitive-event vocabulary of the given size over
// synthetic classes c0, c1, ... with a create, delete and one modify
// type per class.
func Vocabulary(classes int) []event.Type {
	var out []event.Type
	for i := 0; i < classes; i++ {
		cls := fmt.Sprintf("c%d", i)
		out = append(out,
			event.Create(cls),
			event.Delete(cls),
			event.Modify(cls, "a"),
		)
	}
	return out
}

// RuleSetOptions parameterizes rule-set generation.
type RuleSetOptions struct {
	// Rules is the number of rules.
	Rules int
	// Vocab is the primitive vocabulary rules draw from.
	Vocab []event.Type
	// TypesPerRule bounds how many distinct primitive types one rule
	// mentions; each rule picks a contiguous window of the vocabulary so
	// that stream selectivity is controllable.
	TypesPerRule int
	// Depth is the expression depth; 0 generates disjunction-only rules
	// (the original Chimera shape).
	Depth int
	// Negation/Instance/Precedence gate the operator families.
	Negation, Instance, Precedence bool
}

// Rules generates a deterministic rule set.
func Rules(r *rand.Rand, o RuleSetOptions) []rules.Def {
	if o.TypesPerRule <= 0 {
		o.TypesPerRule = 3
	}
	defs := make([]rules.Def, o.Rules)
	for i := range defs {
		start := r.Intn(len(o.Vocab))
		window := make([]event.Type, 0, o.TypesPerRule)
		for j := 0; j < o.TypesPerRule; j++ {
			window = append(window, o.Vocab[(start+j)%len(o.Vocab)])
		}
		var e calculus.Expr
		if o.Depth <= 0 {
			exprs := make([]calculus.Expr, len(window))
			for j, t := range window {
				exprs[j] = calculus.P(t)
			}
			e = calculus.DisjAll(exprs...)
		} else {
			e = calculus.GenExpr(r, calculus.GenOptions{
				Types:           window,
				MaxDepth:        o.Depth,
				AllowNegation:   o.Negation,
				AllowInstance:   o.Instance,
				AllowPrecedence: o.Precedence,
			})
		}
		defs[i] = rules.Def{
			Name:     fmt.Sprintf("r%04d", i),
			Event:    e,
			Priority: i,
		}
	}
	return defs
}

// StreamOptions parameterizes event-stream generation.
type StreamOptions struct {
	// Blocks is the number of non-interruptible blocks.
	Blocks int
	// EventsPerBlock is the number of occurrences per block.
	EventsPerBlock int
	// Objects is the number of distinct OIDs.
	Objects int
	// Vocab is the full vocabulary arrivals draw from.
	Vocab []event.Type
	// HotFraction, when in (0,1], restricts arrivals to the first
	// HotFraction of the vocabulary — rules listening on the cold tail
	// never see a relevant event, which is what the V(E) filter exploits.
	HotFraction float64
}

// Block is one non-interruptible block's worth of occurrences.
type Block []event.Occurrence

// Stream generates the blocks, appending to the base with the clock.
func Stream(r *rand.Rand, c *clock.Clock, b *event.Base, o StreamOptions) []Block {
	hot := len(o.Vocab)
	if o.HotFraction > 0 && o.HotFraction <= 1 {
		hot = int(float64(len(o.Vocab)) * o.HotFraction)
		if hot < 1 {
			hot = 1
		}
	}
	if o.Objects <= 0 {
		o.Objects = 16
	}
	blocks := make([]Block, 0, o.Blocks)
	for i := 0; i < o.Blocks; i++ {
		blk := make(Block, 0, o.EventsPerBlock)
		for j := 0; j < o.EventsPerBlock; j++ {
			t := o.Vocab[r.Intn(hot)]
			oid := types.OID(1 + r.Intn(o.Objects))
			occ, err := b.Append(t, oid, c.Tick())
			if err != nil {
				panic(err) // strictly monotone clock; cannot happen
			}
			blk = append(blk, occ)
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// RunResult summarizes one support run for the harness tables.
type RunResult struct {
	Triggerings   int64
	TsEvaluations int64
	RulesExamined int64
	RulesSkipped  int64
	MemoHits      int64
	MemoMisses    int64
}

// Drive replays pre-generated blocks through a Support: notify, check,
// and consider every triggered rule after each block (so rules keep
// re-arming, the steady state of a busy system).
func Drive(s *rules.Support, c *clock.Clock, blocks []Block, consider bool) RunResult {
	for _, blk := range blocks {
		s.NotifyArrivals(blk)
		fired := s.CheckTriggered(c.Now())
		if consider {
			for _, name := range fired {
				if _, err := s.Consider(name, c.Tick()); err != nil {
					panic(err)
				}
			}
		}
	}
	st := s.Stats()
	return RunResult{
		Triggerings:   st.Triggerings,
		TsEvaluations: st.TsEvaluations,
		RulesExamined: st.RulesExamined,
		RulesSkipped:  st.RulesSkipped,
		MemoHits:      st.MemoHits,
		MemoMisses:    st.MemoMisses,
	}
}
