package chimera_test

import (
	"bufio"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every fuzzer runs in CI: a func Fuzz* of this module whose package and
// name no recipe line of the Makefile's fuzz or torture target passes to
// `go test -fuzz` runs only its seed corpus, and fails here.
func TestEveryFuzzerIsRun(t *testing.T) {
	runs := fuzzRecipes(t, "fuzz", "torture")
	fuzzers := 0
	walkModule(t, true, func(path string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			fuzzers++
			pkg := "./" + filepath.ToSlash(filepath.Dir(path)) + "/"
			if !runs[pkg+" "+fn.Name.Name] {
				t.Errorf("%s: %s is not run by `make fuzz` or `make torture` (no `go test %s -fuzz %s` line)",
					path, fn.Name.Name, pkg, fn.Name.Name)
			}
		}
	})
	if fuzzers == 0 {
		t.Fatal("found no fuzzer: the walk missed the test files")
	}
}

// fuzzRecipe matches a recipe line running one fuzzer of one package.
var fuzzRecipe = regexp.MustCompile(`test\s+(\./\S+/)\s.*-fuzz\s+'?\^?(Fuzz\w+)`)

// fuzzRecipes returns "<package dir> <fuzzer>" for every fuzzer a recipe
// line of the named Makefile targets runs.
func fuzzRecipes(t *testing.T, targets ...string) map[string]bool {
	t.Helper()
	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "\t") {
			in = false
			for _, target := range targets {
				in = in || strings.HasPrefix(line, target+":")
			}
			continue
		}
		if m := fuzzRecipe.FindStringSubmatch(line); in && m != nil {
			runs[m[1]+" "+m[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return runs
}
