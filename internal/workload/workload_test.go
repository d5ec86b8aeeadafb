package workload

import (
	"math/rand"
	"testing"

	"chimera/internal/calculus"
	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/rules"
)

func TestVocabulary(t *testing.T) {
	v := Vocabulary(3)
	if len(v) != 9 {
		t.Fatalf("vocabulary size = %d, want 9", len(v))
	}
	for _, ty := range v {
		if err := ty.Valid(); err != nil {
			t.Errorf("invalid type %v: %v", ty, err)
		}
	}
}

func TestRulesGeneration(t *testing.T) {
	vocab := Vocabulary(8)
	r := rand.New(rand.NewSource(1))
	defs := Rules(r, RuleSetOptions{Rules: 50, Vocab: vocab, TypesPerRule: 3, Depth: 2,
		Negation: true, Instance: true, Precedence: true})
	if len(defs) != 50 {
		t.Fatalf("rules = %d", len(defs))
	}
	names := make(map[string]bool)
	for _, d := range defs {
		if err := d.Validate(); err != nil {
			t.Errorf("invalid rule %s: %v", d.Name, err)
		}
		if names[d.Name] {
			t.Errorf("duplicate name %s", d.Name)
		}
		names[d.Name] = true
		if prims := calculus.Primitives(d.Event); len(prims) > 3 {
			t.Errorf("rule %s mentions %d types, want <= 3", d.Name, len(prims))
		}
	}
	// Depth 0 means disjunction-only (legacy shape).
	legacy := Rules(r, RuleSetOptions{Rules: 10, Vocab: vocab, TypesPerRule: 2})
	for _, d := range legacy {
		if !disjunctionOnly(d.Event) {
			t.Errorf("depth-0 rule %s is not disjunction-only: %v", d.Name, d.Event)
		}
	}
}

// disjunctionOnly reports whether e is in original Chimera's event
// language: primitive types under set-oriented disjunction.
func disjunctionOnly(e calculus.Expr) bool {
	switch n := e.(type) {
	case calculus.Prim:
		return true
	case calculus.Or:
		return !n.Inst && disjunctionOnly(n.L) && disjunctionOnly(n.R)
	}
	return false
}

func TestStreamHotFraction(t *testing.T) {
	vocab := Vocabulary(10) // 30 types
	r := rand.New(rand.NewSource(2))
	c := clock.New()
	b := event.NewBase()
	blocks := Stream(r, c, b, StreamOptions{
		Blocks: 20, EventsPerBlock: 10, Objects: 8, Vocab: vocab, HotFraction: 0.1,
	})
	if len(blocks) != 20 || b.Len() != 200 {
		t.Fatalf("blocks = %d, events = %d", len(blocks), b.Len())
	}
	hot := make(map[event.Type]bool)
	for _, ty := range vocab[:3] { // 10% of 30
		hot[ty] = true
	}
	for _, occ := range b.All() {
		if !hot[occ.Type] {
			t.Fatalf("cold type %v appeared with HotFraction=0.1", occ.Type)
		}
	}
}

func TestDriveCountsTriggerings(t *testing.T) {
	vocab := Vocabulary(2)
	r := rand.New(rand.NewSource(3))
	c := clock.New()
	b := event.NewBase()
	s := rules.NewSupport(b, rules.Options{UseFilter: true})
	s.BeginTransaction(c.Now())
	if err := s.Define(rules.Def{Name: "r", Event: calculus.P(vocab[0])}); err != nil {
		t.Fatal(err)
	}
	blocks := Stream(r, c, b, StreamOptions{
		Blocks: 10, EventsPerBlock: 5, Objects: 4, Vocab: vocab,
	})
	res := Drive(s, c, blocks, true)
	if res.Triggerings == 0 {
		t.Fatal("no triggerings on a dense stream")
	}
	if res.TsEvaluations == 0 || res.RulesExamined == 0 {
		t.Fatalf("counters empty: %+v", res)
	}
}
