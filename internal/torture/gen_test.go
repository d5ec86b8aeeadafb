package torture

import (
	"fmt"
	"math/rand"
	"strings"
)

// classSrc renders k class definitions c0..c{k-1}, each with one
// integer attribute n — the schema every generated program shares.
func classSrc(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "class c%d (n: integer)\n", i)
	}
	return b.String()
}

// className returns the i'th generated class name.
func className(i int) string { return fmt.Sprintf("c%d", i) }

// primSrc picks a random set-level primitive event over the k classes.
func primSrc(r *rand.Rand, k int) string {
	c := className(r.Intn(k))
	switch r.Intn(3) {
	case 0:
		return "create(" + c + ")"
	case 1:
		return "delete(" + c + ")"
	default:
		return "modify(" + c + ".n)"
	}
}

// setOps are the set-level infix operators (disjunction, conjunction,
// precedence). Generated expressions stay negation-free and set-level
// so every composition is valid calculus.
var setOps = []string{",", "+", "<"}

// deepNestSrc renders a right-nested, fully parenthesized event
// expression of the given nesting depth — the parser-recursion and
// evaluator-depth torture shape.
func deepNestSrc(r *rand.Rand, depth, k int) string {
	if depth <= 0 {
		return primSrc(r, k)
	}
	op := setOps[r.Intn(len(setOps))]
	return "(" + primSrc(r, k) + " " + op + " " + deepNestSrc(r, depth-1, k) + ")"
}

// precChainSrc renders a precedence chain of n primitives over one
// class — the pathological shape for the ∃t' probe, every link sharing
// the same primitive types.
func precChainSrc(class string, n int) string {
	parts := make([]string, 0, n)
	ops := []string{"create(%s)", "delete(%s)", "modify(%s.n)"}
	for i := 0; i < n; i++ {
		parts = append(parts, fmt.Sprintf(ops[i%len(ops)], class))
	}
	return strings.Join(parts, " < ")
}

// adversarialProgram renders a complete program: nClasses classes and
// nRules rules whose event expressions are deep random nests. Distinct
// random shapes per rule bust cross-rule plan sharing (each rule
// contributes mostly-unique nodes to the shared DAG), which is exactly
// the memo-unfriendly load the budget machinery must bound.
func adversarialProgram(seed int64, nRules, depth, nClasses int) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(classSrc(nClasses))
	for i := 0; i < nRules; i++ {
		fmt.Fprintf(&b, "define r%d priority %d\nevents %s\nend\n",
			i, i+1, deepNestSrc(r, depth, nClasses))
	}
	return b.String()
}

// precChainProgram renders nRules rules that are all long precedence
// chains over overlapping classes — the plan DAG shares the primitives
// but every chain node above them is distinct.
func precChainProgram(nRules, chainLen, nClasses int) string {
	var b strings.Builder
	b.WriteString(classSrc(nClasses))
	for i := 0; i < nRules; i++ {
		fmt.Fprintf(&b, "define r%d priority %d\nevents %s\nend\n",
			i, i+1, precChainSrc(className(i%nClasses), chainLen))
	}
	return b.String()
}

// garbageSrc renders a deterministic pseudo-random byte soup drawn from
// the language's own alphabet — hostile parser input that is dense in
// almost-valid prefixes.
func garbageSrc(seed int64, n int) string {
	r := rand.New(rand.NewSource(seed))
	const alphabet = "abcdefg0123456789()<>+,=.-*/;:\"' \n\tclassdefineeventsconditionactionend"
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}
