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
	walkModule(t, false, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, name := range importNames(f, "chimera/internal/calculus") {
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
	})
}

// The Trigger Support's kernel-only calls stay kernel-only: its
// BeginTransaction opens the Session its NotifyArrivals, CheckTriggered,
// Pick, Consider and Watermark call, for the benchmark's rules kernel,
// which is another module. A program file of this module outside
// internal/rules that calls a method named BeginTransaction fails here;
// every transaction of the engine is a rules.Session of its own.
func TestKernelOnlyCallsStayInTheKernel(t *testing.T) {
	walkModule(t, false, func(path string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) == "internal/rules" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "BeginTransaction" {
					t.Errorf("%s calls BeginTransaction: open a rules.Session with NewSession", path)
				}
			}
			return true
		})
	})
}

// walkModule parses every Go file of this module — the test files only
// when tests is set, the program files otherwise — skipping hidden
// directories, testdata and nested modules (benchmark/), and hands each
// to visit with its slash-separated path.
func walkModule(t *testing.T, tests bool, visit func(path string, f *ast.File)) {
	t.Helper()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		files++
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d files: the walk missed the module", files)
	}
}

// importNames returns the names f imports the package path under.
func importNames(f *ast.File, path string) []string {
	var names []string
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			name := filepath.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names = append(names, name)
		}
	}
	return names
}
