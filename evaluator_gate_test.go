package chimera_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// One evaluator in production: the memoized calculus.PlanEval decides
// triggering, binds the conditions' event formulas and explains verdicts.
// The recursive calculus.Env is the paper's definition, for the tests,
// the conformance corpus and the figures only; a program file anywhere
// else that names it fails here. And one interning path: plans are built
// by the Trigger Support (the trigger plan), the engine (the condition
// plan every rule's condition is interned into at definition) and the
// shell (explain) only; a program file anywhere else that calls
// calculus.NewPlan fails here.
func TestOneEvaluatorInProduction(t *testing.T) {
	allowed := map[string][]string{
		"Env":     {"internal/calculus", "internal/spec", "internal/figures"},
		"NewPlan": {"internal/rules", "internal/engine", "internal/shell"},
	}
	why := map[string]string{
		"Env":     "production code evaluates with calculus.PlanEval",
		"NewPlan": "conditions are interned into the engine's condition plan",
	}
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, name := range calculusNames(f) {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					if dirs, gated := allowed[sel.Sel.Name]; gated && !slices.Contains(dirs, dir) {
						t.Errorf("%s names calculus.%s: %s", path, sel.Sel.Name, why[sel.Sel.Name])
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d program files: the walk missed the module", files)
	}
}

// calculusNames returns the names f imports the calculus package under.
func calculusNames(f *ast.File) []string {
	var names []string
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "chimera/internal/calculus" {
			name := "calculus"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names = append(names, name)
		}
	}
	return names
}
