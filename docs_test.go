// The source-tree gates: every Go package in the module must carry a
// package comment, the QAOA² executor must stay the only one, and every
// internal declaration must be reachable from a command, example,
// benchmark or experiment. Running inside `go test ./...` makes the
// gates self-enforcing in CI — a PR that lands an undocumented package,
// a second execution path or code nothing calls fails here with the
// exact place named.
package qaoa2_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
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

// reachAllowlist names the internal declarations no root reaches that
// stay anyway: test fixtures and oracles, each with the tests that use
// it. TestEverythingIsReachable fails when an entry names nothing or a
// root now reaches it, so the list cannot outlive its reasons.
var reachAllowlist = map[string]string{
	"graph.Complete":               "fixture in the tests of 14 packages",
	"graph.Path":                   "fixture in the tests of 7 packages",
	"graph.Bipartite":              "fixture in the tests of 8 packages",
	"hpc.VerifyNoOversubscription": "scheduler invariant oracle of the Simulate tests in sched_test.go",
	"linalg.EigSym":                "cold-start oracle of the SymEig tests in linalg",
	"partition.Modularity":         "CNM objective of TestGreedyModularityImprovesOverSingletons",
	"partition.GreedyModularity":   "CNM entry point of FuzzSizeCapped and the lazy-heap oracle tests",
	"qsim.Fidelity":                "state comparison of the qsim, circuit and synth tests",
	"runtime.CanonicalRecords":     "checkpoint comparison of the runtime and hpc determinism tests",
	"solver.DefaultSelector":       "trained selector of the experiments, solver and qaoa2 tests",
	"synth.Synthesize":             "entry point of the synth semantics tests",
}

// TestEverythingIsReachable fails for every top-level func, type and
// var under internal/ that no command, example, benchmark or
// experiment renderer can reach, so code that only its own tests call
// is deleted rather than kept. See unreachable for the rules.
func TestEverythingIsReachable(t *testing.T) {
	problems, err := unreachable(".", reachAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("unreachable declarations (delete them; only a test fixture or oracle may be allowlisted, with its reason):\n  %s",
			strings.Join(problems, "\n  "))
	}
}

// TestReachabilityOnSyntheticModule runs the reachability analysis on
// a small module where each rule decides one declaration: a func only
// a method of a reached type calls, one only a var initializer calls,
// one only init calls and one only bench/ calls all pass, as does an
// allowlisted oracle only a test calls; a func only its test calls
// fails, and so do an allowlist entry naming nothing and one naming a
// func a root reaches.
func TestReachabilityOnSyntheticModule(t *testing.T) {
	lib := `// Package lib is the synthetic module's only internal package.
package lib

var _ = fromVarInit()

func init() { fromInit() }

func fromVarInit() int { return 1 }

func fromInit() {}

// Store is reached from the command; its method reaches viaMethod.
type Store struct{}

func (Store) Get() int { return viaMethod() }

func viaMethod() int { return 2 }

func BenchOnly() int { return 3 }

func Oracle() int { return 4 }

func Used() int { return 5 }

func Dead() int { return 6 }
`
	files := map[string]string{
		"go.mod":                   "module demo\n\ngo 1.23\n",
		"internal/lib/lib.go":      lib,
		"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestLib(t *testing.T) { _, _ = Oracle(), Dead() }\n",
		"cmd/app/main.go":          "package main\n\nimport \"demo/internal/lib\"\n\nfunc main() { _, _ = lib.Store{}.Get(), lib.Used() }\n",
		"bench/main.go":            "package main\n\nimport \"demo/internal/lib\"\n\nfunc main() { _ = lib.BenchOnly() }\n",
	}
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"lib.Oracle": "oracle of TestLib",
		"lib.Used":   "stale: the command calls it",
		"lib.Gone":   "stale: no such func",
	}
	got, err := unreachable(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	deadLine := strings.Count(lib[:strings.Index(lib, "func Dead")], "\n") + 1
	want := []string{
		"allowlisted but no such func, type or var: lib.Gone",
		"allowlisted but reached from a root: lib.Used",
		fmt.Sprintf("internal/lib/lib.go:%d lib.Dead", deadLine),
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// reachFile is one parsed file: the import path of its package and the
// import path each of its import names stands for.
type reachFile struct {
	pkg     string
	imports map[string]string
}

// reachDecl is a node the walk visits, with its file: a root, or a
// top-level declaration of a non-test file under internal/ (a func, a
// type, a var or const spec, or a method, which hangs off its
// receiver's type).
type reachDecl struct {
	node     ast.Node
	file     *reachFile
	pos      string
	reported bool // funcs, types and vars; consts are followed, never reported
}

// unreachable parses the module at root with go/ast alone and returns,
// sorted, "file:line pkg.Name" for each top-level func, type and var
// in a non-test file under internal/ that no root reaches and allow
// does not name, plus a line for each allow entry that names no such
// declaration or names one a root reaches. pkg is the import path
// below internal/.
//
// The roots are every non-test file outside internal/ (the facade,
// cmd/*, examples/*), every file under bench/ (its own module, which
// decorates internals), the module root's bench_test.go (the experiment
// renderers), and each package-level var initializer and init func.
// An identifier reaches the same-package declaration of that name, an
// import.Name selector the imported package's, and a reached type
// reaches all its methods. Matching is by name only, so a local that
// shadows a top-level name keeps it: the check errs toward keeping code.
func unreachable(root string, allow map[string]string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}

	type parsed struct {
		f    *ast.File
		rf   *reachFile
		root bool
	}
	var files []parsed
	pkgNames := map[string]string{}      // import path → package name
	decls := map[string][]*reachDecl{}   // "path.Name" → its declarations
	methods := map[string][]*reachDecl{} // "path.Type" → its methods
	var roots []*reachDecl
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		test := strings.HasSuffix(rel, "_test.go")
		internal := strings.HasPrefix(rel, "internal/")
		isRoot := strings.HasPrefix(rel, "bench/") || rel == "bench_test.go" || (!internal && !test)
		if test && !isRoot {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir := path.Dir(rel); dir != "." {
			pkg += "/" + dir
		}
		rf := &reachFile{pkg: pkg, imports: map[string]string{}}
		files = append(files, parsed{f, rf, isRoot})
		if !internal || test {
			return nil
		}
		pkgNames[pkg] = f.Name.Name
		add := func(name *ast.Ident, node ast.Node, reported bool) {
			if name.Name == "_" {
				return
			}
			key := pkg + "." + name.Name
			decls[key] = append(decls[key], &reachDecl{node, rf,
				fmt.Sprintf("%s:%d", rel, fset.Position(name.Pos()).Line), reported})
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					key := pkg + "." + receiverType(d.Recv.List[0].Type)
					methods[key] = append(methods[key], &reachDecl{node: d, file: rf})
				case d.Name.Name == "init":
					roots = append(roots, &reachDecl{node: d, file: rf})
				default:
					add(d.Name, d, true)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, true)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(name, s, d.Tok == token.VAR)
						}
						if d.Tok == token.VAR {
							for _, v := range s.Values {
								roots = append(roots, &reachDecl{node: v, file: rf})
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, pf := range files {
		for _, imp := range pf.f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			name := path.Base(ipath)
			if n, ok := pkgNames[ipath]; ok {
				name = n
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pf.rf.imports[name] = ipath
		}
		if pf.root {
			roots = append(roots, &reachDecl{node: pf.f, file: pf.rf})
		}
	}

	reached := map[string]bool{}
	work := roots
	mark := func(key string) {
		if reached[key] || decls[key] == nil {
			return
		}
		reached[key] = true
		work = append(work, decls[key]...)
		work = append(work, methods[key]...)
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if ipath, ok := d.file.imports[id.Name]; ok {
						mark(ipath + "." + x.Sel.Name)
						return false
					}
				}
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				mark(d.file.pkg + "." + x.Name)
			}
			return true
		}
		ast.Inspect(d.node, visit)
	}

	var problems []string
	short := func(key string) string { return strings.TrimPrefix(key, module+"/internal/") }
	reportable := map[string]bool{}
	for key, ds := range decls {
		if !ds[0].reported {
			continue
		}
		name := short(key)
		reportable[name] = true
		_, allowed := allow[name]
		switch {
		case reached[key] && allowed:
			problems = append(problems, fmt.Sprintf("allowlisted but reached from a root: %s", name))
		case !reached[key] && !allowed:
			problems = append(problems, fmt.Sprintf("%s %s", ds[0].pos, name))
		}
	}
	for name := range allow {
		if !reportable[name] {
			problems = append(problems, fmt.Sprintf("allowlisted but no such func, type or var: %s", name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// receiverType is the name of a method receiver's type: T for T, *T,
// T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
