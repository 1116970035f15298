// The source-tree gates: every Go package in the module must carry a
// package comment, and the QAOA² executor must stay the only one.
// Running inside `go test ./...` makes the gates self-enforcing in CI —
// a PR that lands an undocumented package, or a second execution path,
// fails here with the exact place named.
package qaoa2_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPackageHasGodoc walks the module tree and fails for any
// package (commands and internal packages alike) whose files all lack
// a package doc comment. Test-only packages (_test) are exempt: godoc
// does not render them.
func TestEveryPackageHasGodoc(t *testing.T) {
	var missing []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		switch d.Name() {
		case ".git", ".github", "testdata":
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				missing = append(missing, path+" (package "+name+")")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("packages without a package doc comment:\n  %s",
			strings.Join(missing, "\n  "))
	}
}

// TestOneExecutor keeps the second QAOA² executor from growing back:
// no non-test file outside bench/ reads or sets Options.Runtime (the
// field's declaration survives only for the benchmark module), and
// internal/qaoa2 — the front of the algorithm, not its executor —
// starts no goroutine of its own. Nor does a second divide-and-conquer
// driver: only the executor (internal/runtime), the partitioner itself
// and the partition ablation (internal/experiments) import
// internal/partition. The check is syntactic: any `.Runtime` selector
// or `Runtime:` literal key counts.
func TestOneExecutor(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || path == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		inQAOA2 := dir == "internal/qaoa2"
		for _, imp := range f.Imports {
			if imp.Path.Value == `"qaoa2/internal/partition"` &&
				dir != "internal/runtime" && dir != "internal/partition" && dir != "internal/experiments" {
				t.Errorf("%s: divides graphs outside the executor (imports internal/partition)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if x.Sel.Name == "Runtime" {
					t.Errorf("%s: reads or sets .Runtime", fset.Position(x.Pos()))
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok && id.Name == "Runtime" {
					t.Errorf("%s: sets Runtime in a literal", fset.Position(x.Pos()))
				}
			case *ast.GoStmt:
				if inQAOA2 {
					t.Errorf("%s: internal/qaoa2 starts a goroutine", fset.Position(x.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
