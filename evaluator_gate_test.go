package chimera_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// One evaluator in production: the memoized calculus.PlanEval decides
// triggering, binds the conditions' event formulas and explains verdicts.
// The recursive calculus.Env is the paper's definition, for the tests,
// the conformance corpus and the figures only; a program file anywhere
// else that names it fails here.
func TestOneEvaluatorInProduction(t *testing.T) {
	allowed := []string{"internal/calculus", "internal/spec", "internal/figures"}
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
		for _, dir := range allowed {
			if filepath.ToSlash(filepath.Dir(path)) == dir {
				return nil
			}
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, name := range calculusNames(f) {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Env" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						t.Errorf("%s names calculus.Env: production code evaluates with calculus.PlanEval", path)
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
