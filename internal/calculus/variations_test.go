package calculus

import (
	"math/rand"
	"slices"
	"testing"

	"chimera/internal/clock"
	"chimera/internal/event"
	"chimera/internal/types"
)

// The worked example of Section 5.1:
//
//	E = (A + B) , (C + -A) , (A += C) , (B <= A)
//
// whose variation set derives to
//
//	{Δ+A, Δ+B, Δ+C, Δ−A, Δ+O(A += C), Δ±O(B <= A)}
//	→ {Δ+A, Δ+B, Δ+C, Δ−A, Δ+O A, Δ+O C, Δ±O B, Δ±O A}
//	→ {Δ±A, Δ±B, Δ+C}
//
// (the paper's final set; the Δ− component of B comes from the
// precedence, whose operands contribute both directions).
func TestWorkedVariationExample(t *testing.T) {
	A := event.Create("a")
	B := event.Create("b")
	C := event.Create("c")
	e := Disj(
		Disj(
			Disj(
				Conj(P(A), P(B)),
				Conj(P(C), Neg(P(A))),
			),
			ConjI(P(A), P(C)),
		),
		PrecI(P(B), P(A)),
	)
	if err := Valid(e); err != nil {
		t.Fatal(err)
	}
	v := V(e)
	want := map[event.Type]Sign{A: SignBoth, B: SignBoth, C: SignPos}
	if len(v) != len(want) {
		t.Fatalf("V(E) = %s, want 3 entries", v)
	}
	for _, variation := range v {
		if variation.ObjLevel {
			t.Errorf("object-level variation %s survived simplification", variation)
		}
		if want[variation.Type] != variation.Sign {
			t.Errorf("V(E) entry %s: sign %s, want %s", variation.Type, variation.Sign, want[variation.Type])
		}
	}
}

// Purely instance-oriented expressions keep object-level variations.
func TestObjectLevelVariationSurvivesAlone(t *testing.T) {
	A, B := event.Create("a"), event.Create("b")
	v := V(ConjI(P(A), P(B)))
	if len(v) != 2 {
		t.Fatalf("V = %s, want 2 entries", v)
	}
	for _, variation := range v {
		if !variation.ObjLevel || variation.Sign != SignPos {
			t.Errorf("unexpected variation %s", variation)
		}
	}
}

// Negation flips the derivation direction: V(-A) = {Δ−A}; Δ−(-A) = {Δ+A}.
func TestNegationFlipsDerivation(t *testing.T) {
	A := event.Create("a")
	if v := DerivePos(Neg(P(A))); len(v) != 1 || v[0].Sign != SignNeg {
		t.Fatalf("Δ+(-A) = %s, want {Δ−A}", VarSet(v))
	}
	if v := DeriveNeg(Neg(P(A))); len(v) != 1 || v[0].Sign != SignPos {
		t.Fatalf("Δ−(-A) = %s, want {Δ+A}", VarSet(v))
	}
}

// Figure 7's core merges.
func TestSimplificationRules(t *testing.T) {
	A := event.Create("a")
	cases := []struct {
		in       VarSet
		wantSign Sign
		wantObj  bool
	}{
		// {Δ+A, Δ−A} → {Δ±A}
		{VarSet{{SignPos, A, false}, {SignNeg, A, false}}, SignBoth, false},
		// {Δ+O A, Δ−O A} → {Δ±O A}
		{VarSet{{SignPos, A, true}, {SignNeg, A, true}}, SignBoth, true},
		// {Δ+A, Δ+O A} → {Δ+A}
		{VarSet{{SignPos, A, false}, {SignPos, A, true}}, SignPos, false},
		// {Δ+A, Δ−O A} → {Δ±A}
		{VarSet{{SignPos, A, false}, {SignNeg, A, true}}, SignBoth, false},
		// {Δ±O A, Δ+A} → {Δ±A}
		{VarSet{{SignBoth, A, true}, {SignPos, A, false}}, SignBoth, false},
	}
	for i, c := range cases {
		got := Simplify(c.in)
		if len(got) != 1 || got[0].Sign != c.wantSign || got[0].ObjLevel != c.wantObj {
			t.Errorf("case %d: Simplify(%s) = %s", i, c.in, got)
		}
	}
}

// Vacuous activation detection: expressions active over a log that holds
// none of their primitive types.
func TestVacuouslyActive(t *testing.T) {
	A, B := P(event.Create("a")), P(event.Create("b"))
	cases := []struct {
		e    Expr
		want bool
	}{
		{A, false},
		{Neg(A), true},
		{Conj(A, B), false},
		{Conj(A, Neg(B)), false},
		{Disj(A, Neg(B)), true},
		{Neg(Conj(A, B)), true},
		{Prec(Neg(A), Neg(B)), true},
		{Prec(A, Neg(B)), false},
		{Conj(Neg(A), Neg(B)), true},
		{NegI(ConjI(A, B)), true},
	}
	for _, c := range cases {
		if got := VacuouslyActive(c.e); got != c.want {
			t.Errorf("VacuouslyActive(%s) = %v, want %v", c.e, got, c.want)
		}
	}
}

// Filter behaviour on the paper's expression shapes.
func TestFilterRelevance(t *testing.T) {
	A := event.Create("a")
	B := event.Create("b")
	C := event.Create("c")
	// E = A + -B: recompute on A (Δ+), skip B (pure Δ−) and C (absent).
	f := Compile(Conj(P(A), Neg(P(B))))
	if f.MatchAll {
		t.Fatal("A + -B must not be vacuous")
	}
	if !f.Relevant(A) {
		t.Error("arrival of A must be relevant")
	}
	if f.Relevant(B) {
		t.Error("arrival of B is a pure Δ− variation; not relevant for triggering")
	}
	mentions := func(ty event.Type) bool {
		return slices.ContainsFunc(f.Set(), func(v Variation) bool { return v.Type == ty })
	}
	if !mentions(B) {
		t.Error("B is mentioned in V(E)")
	}
	if f.Relevant(C) || mentions(C) {
		t.Error("C is foreign to the expression")
	}

	// Vacuous expressions match everything.
	f = Compile(Neg(P(A)))
	if !f.MatchAll || !f.Relevant(C) {
		t.Error("-A must match every arrival (vacuously active)")
	}

	// Instance negation forces MatchAll (domain sensitivity).
	f = Compile(Conj(P(C), NegI(ConjI(P(A), P(B)))))
	if !f.MatchAll {
		t.Error("expressions containing -= must match every arrival")
	}
}

// Filter soundness, the property the optimization rests on: whenever the
// triggering probe fires over a window, at least one arrival in that
// window is Relevant according to the compiled filter. (The contrapositive
// is what the Trigger Support exploits: no relevant arrival → no firing →
// skip the recomputation.)
func TestFilterSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	vocab := DefaultVocabulary()
	opts := GenOptions{Types: vocab[:4], MaxDepth: 4, AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	fired, skippedSound := 0, 0
	for i := 0; i < 400; i++ {
		e := GenExpr(r, opts)
		f := Compile(e)
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 4, Events: 12})
		env := &Env{Base: base}
		ok, _ := env.Triggered(e, now)
		anyRelevant := false
		for _, occ := range base.Window(clock.Never, now) {
			if f.Relevant(occ.Type) {
				anyRelevant = true
				break
			}
		}
		if ok {
			fired++
			if !anyRelevant {
				t.Fatalf("UNSOUND: %s fired but no arrival matched V(E) = %s (MatchAll=%v)",
					e, f.Set(), f.MatchAll)
			}
		} else if !anyRelevant {
			skippedSound++
		}
	}
	if fired == 0 {
		t.Fatal("generator produced no firing cases; soundness not exercised")
	}
}

// Filter soundness must hold incrementally too: consider the rule midway
// (consume the prefix), then check that a suffix with no relevant arrival
// never fires.
func TestFilterSoundnessIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	vocab := DefaultVocabulary()
	opts := GenOptions{Types: vocab[:4], MaxDepth: 4, AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	for i := 0; i < 300; i++ {
		e := GenExpr(r, opts)
		f := Compile(e)
		c := clock.New()
		base, now := GenHistory(r, c, HistoryOptions{Types: vocab, Objects: 4, Events: 14})
		all := base.Window(clock.Never, now)
		mid := all[len(all)/2].Timestamp // consideration instant
		env := &Env{Base: base, Since: mid}
		ok, _ := env.Triggered(e, now)
		if !ok {
			continue
		}
		anyRelevant := false
		for _, occ := range base.Window(mid, now) {
			if f.Relevant(occ.Type) {
				anyRelevant = true
				break
			}
		}
		if !anyRelevant {
			t.Fatalf("UNSOUND (incremental): %s fired over suffix with V(E)=%s, MatchAll=%v",
				e, f.Set(), f.MatchAll)
		}
	}
}

var _ = types.OID(0)

// DeriveNeg computes Δ−(E). See DerivePos.
func DeriveNeg(e Expr) VarSet { return derive(e, SignNeg, false) }
