package calculus

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chimera/internal/event"
)

func TestValidRejectsInstanceOverSet(t *testing.T) {
	A, B, C := P(createStock), P(modStockQty), P(modShowQty)
	bad := []Expr{
		ConjI(Conj(A, B), C),           // += over a set conjunction
		NegI(Disj(A, B)),               // -= over a set disjunction
		PrecI(A, Neg(B)),               // <= over a set negation
		DisjI(A, Prec(B, C)),           // ,= over a set precedence
		ConjI(ConjI(A, Conj(B, C)), C), // nested violation
	}
	for _, e := range bad {
		if err := Valid(e); err == nil {
			t.Errorf("Valid(%s) accepted an instance operator over a set operand", e)
		}
	}
	good := []Expr{
		Conj(ConjI(A, B), C),        // set over instance: allowed
		Neg(NegI(A)),                // set negation over a lift root
		ConjI(A, DisjI(B, NegI(C))), // pure instance tree
		Prec(Disj(A, B), ConjI(A, C)),
	}
	for _, e := range good {
		if err := Valid(e); err != nil {
			t.Errorf("Valid(%s) = %v, want nil", e, err)
		}
	}
}

func TestValidRejectsMalformedTypes(t *testing.T) {
	if err := Valid(P(event.Type{Op: event.OpModify, Class: "stock"})); err == nil {
		t.Error("modify without attribute accepted")
	}
	if err := Valid(P(event.Type{Op: event.OpCreate, Class: "stock", Attr: "x"})); err == nil {
		t.Error("create with attribute accepted")
	}
	if err := Valid(P(event.Type{Op: event.OpCreate})); err == nil {
		t.Error("type without class accepted")
	}
}

// String respects Figure 1's priorities: tighter operators print without
// parentheses, equal-priority mixes are disambiguated.
func TestStringPriorities(t *testing.T) {
	A, B, C := P(createStock), P(modStockQty), P(modShowQty)
	cases := []struct {
		e    Expr
		want string
	}{
		{Disj(A, Conj(B, C)), "create(stock) , modify(stock.quantity) + modify(show.quantity)"},
		{Conj(Disj(A, B), C), "(create(stock) , modify(stock.quantity)) + modify(show.quantity)"},
		{Neg(Conj(A, B)), "-(create(stock) + modify(stock.quantity))"},
		{Conj(Neg(A), B), "-create(stock) + modify(stock.quantity)"},
		{Neg(Neg(A)), "-(-create(stock))"},
		{Neg(NegI(A)), "-(-=create(stock))"},
		{Conj(Conj(A, B), C), "create(stock) + modify(stock.quantity) + modify(show.quantity)"},
		{Conj(A, Conj(B, C)), "create(stock) + (modify(stock.quantity) + modify(show.quantity))"},
		{Prec(Conj(A, B), C), "(create(stock) + modify(stock.quantity)) < modify(show.quantity)"},
		{Conj(ConjI(A, B), C), "create(stock) += modify(stock.quantity) + modify(show.quantity)"},
		{NegI(ConjI(A, B)), "-=(create(stock) += modify(stock.quantity))"},
		{Neg(ConjI(A, B)), "-(create(stock) += modify(stock.quantity))"},
		{Disj(A, DisjI(B, C)), "create(stock) , modify(stock.quantity) ,= modify(show.quantity)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String:\n got  %s\n want %s", got, c.want)
		}
	}
}

func TestPrimitivesAndMentions(t *testing.T) {
	A, B := P(createStock), P(modStockQty)
	e := Conj(Disj(A, Neg(B)), PrecI(A, B))
	prims := Primitives(e)
	if len(prims) != 2 || prims[0] != createStock || prims[1] != modStockQty {
		t.Fatalf("Primitives = %v", prims)
	}
	if !Mentions(e, createStock) || Mentions(e, modShowQty) {
		t.Error("Mentions misreported")
	}
}

func TestSizeDepth(t *testing.T) {
	A, B := P(createStock), P(modStockQty)
	e := Conj(Neg(A), Disj(A, B))
	if Size(e) != 6 {
		t.Errorf("Size = %d, want 6", Size(e))
	}
	if Depth(e) != 2 {
		t.Errorf("Depth = %d, want 2", Depth(e))
	}
	if Size(A) != 1 || Depth(A) != 0 {
		t.Error("primitive size/depth wrong")
	}
}

func TestDisjAll(t *testing.T) {
	A, B, C := P(createStock), P(modStockQty), P(modShowQty)
	e := DisjAll(A, B, C)
	want := Disj(Disj(A, B), C)
	if !Equal(e, want) {
		t.Errorf("DisjAll = %s", e)
	}
	if !Equal(DisjAll(A), A) {
		t.Error("DisjAll of one expression should be the expression")
	}
}

// Structural equality is reflexive and distinguishes granularity, checked
// with testing/quick over the random generator.
func TestQuickEqualReflexive(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	opts := GenOptions{Types: DefaultVocabulary(), MaxDepth: 5,
		AllowNegation: true, AllowInstance: true, AllowPrecedence: true}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := GenExpr(rr, opts)
		return Equal(e, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualDistinguishesGranularity(t *testing.T) {
	A, B := P(createStock), P(modStockQty)
	if Equal(Conj(A, B), ConjI(A, B)) {
		t.Error("set and instance conjunction compared equal")
	}
	if Equal(Conj(A, B), Disj(A, B)) {
		t.Error("conjunction equal to disjunction")
	}
}

// Generated expressions are always valid, and their String form never
// contains adjacent operator tokens that would be ambiguous to scan.
func TestQuickGeneratedExpressionsValid(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		e := GenExpr(rr, GenOptions{Types: DefaultVocabulary(), MaxDepth: 6,
			AllowNegation: true, AllowInstance: true, AllowPrecedence: true})
		if Valid(e) != nil {
			return false
		}
		s := e.String()
		return !strings.Contains(s, "--") && !strings.Contains(s, "( ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorsTable(t *testing.T) {
	ops := Operators()
	if len(ops) != 4 {
		t.Fatalf("Figure 1 lists 4 operator families, got %d", len(ops))
	}
	// Decreasing priority order: negation first, disjunction last,
	// conjunction and precedence sharing a rank.
	if ops[0].Name != "negation" || ops[3].Name != "disjunction" {
		t.Error("Figure 1 order wrong")
	}
	if ops[1].Priority != ops[2].Priority {
		t.Error("conjunction and precedence must share a priority")
	}
	// Figure 2: precedence is the only temporal operator.
	for _, op := range ops {
		want := "boolean"
		if op.Name == "precedence" {
			want = "temporal"
		}
		if op.Dimension != want {
			t.Errorf("%s dimension = %s, want %s", op.Name, op.Dimension, want)
		}
	}
}

// The rendered syntax agrees with the OpInfo tokens and the binding-power
// ranking agrees with Figure 1's priorities.
func TestBindingPowersMatchFigure1(t *testing.T) {
	A, B := P(createStock), P(modStockQty)
	type ranked struct {
		e Expr
	}
	// Within each granularity: negation > conjunction = precedence > disjunction.
	if !(bindingPower(Neg(A)) > bindingPower(Conj(A, B))) {
		t.Error("set negation must bind tighter than set conjunction")
	}
	if bindingPower(Conj(A, B)) != bindingPower(Prec(A, B)) {
		t.Error("set conjunction and precedence must share binding power")
	}
	if !(bindingPower(Conj(A, B)) > bindingPower(Disj(A, B))) {
		t.Error("set conjunction must bind tighter than set disjunction")
	}
	// Every instance operator binds tighter than every set operator.
	if !(bindingPower(DisjI(A, B)) > bindingPower(Neg(A))) {
		t.Error("instance disjunction must bind tighter than set negation")
	}
	_ = ranked{}
}

// Mentions reports whether the expression mentions the primitive type t.
func Mentions(e Expr, t event.Type) bool {
	for _, p := range Primitives(e) {
		if p == t {
			return true
		}
	}
	return false
}
