//go:build ignore

// Size prints how large the production code is: the non-test Go lines
// outside benchmark/ and the exported top-level identifiers (package-level
// constants, variables, types and functions, and methods), per package
// and in total. Run it from the repository root:
//
//	go run scripts/size.go
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	lines := map[string]int{}
	exported := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.HasPrefix(src, []byte("//go:build ignore")) {
			return nil // a script, like this one
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		lines[pkg] += bytes.Count(src, []byte("\n"))
		exported[pkg] += countExported(f)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "size:", err)
		os.Exit(1)
	}
	pkgs := make([]string, 0, len(lines))
	for p := range lines {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	var totalLines, totalExported int
	fmt.Printf("%-24s %8s %9s\n", "package", "lines", "exported")
	for _, p := range pkgs {
		fmt.Printf("%-24s %8d %9d\n", p, lines[p], exported[p])
		totalLines += lines[p]
		totalExported += exported[p]
	}
	fmt.Printf("%-24s %8d %9d\n", "total", totalLines, totalExported)
}

// countExported counts the exported names a file declares at top level.
func countExported(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}
