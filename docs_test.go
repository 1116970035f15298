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
	"regexp"
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
// internal/partition. Nor does a second Ising route: an Ising problem
// executes only as its ancilla MaxCut reduction, so only
// internal/qaoa2, the solve daemon (internal/serve), the facade and
// internal/ising itself import internal/ising. The check is syntactic:
// any `.Runtime` selector or `Runtime:` literal key counts.
func TestOneExecutor(t *testing.T) {
	isingImporters := map[string]bool{".": true, "internal/qaoa2": true, "internal/serve": true, "internal/ising": true}
	eachSourceFile(t, func(path string, fset *token.FileSet, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		inQAOA2 := dir == "internal/qaoa2"
		for _, imp := range f.Imports {
			if imp.Path.Value == `"qaoa2/internal/partition"` &&
				dir != "internal/runtime" && dir != "internal/partition" && dir != "internal/experiments" {
				t.Errorf("%s: divides graphs outside the executor (imports internal/partition)", path)
			}
			if imp.Path.Value == `"qaoa2/internal/ising"` && !isingImporters[dir] {
				t.Errorf("%s: executes Ising problems outside the MaxCut reduction (imports internal/ising)", path)
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
	})
}

// TestStatementCount logs the size measure every CHANGES.md entry
// reports: the statements of the non-test Go files outside bench/,
// counting every ast.Stmt but the braces of a block (*ast.BlockStmt).
// It gates nothing; read it with
//
//	go test -run TestStatementCount -v .
func TestStatementCount(t *testing.T) {
	n := 0
	eachSourceFile(t, func(_ string, _ *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(x ast.Node) bool {
			if _, ok := x.(ast.Stmt); ok {
				if _, block := x.(*ast.BlockStmt); !block {
					n++
				}
			}
			return true
		})
	})
	t.Logf("%d non-test Go statements outside bench/", n)
}

// eachSourceFile parses every non-test Go file of the module outside
// bench/ and hands it to fn with its path and file set.
func eachSourceFile(t *testing.T, fn func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
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
		fn(path, fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// facadeUsers are the root files whose mentions of facade names decide
// the public surface; every .go file under examples/ and cmd/ counts
// too. facade_test.go is not one of them: it pins the surface, it does
// not decide it.
var facadeUsers = []string{"README.md", "example_test.go", "golden_test.go", "bench_test.go", "docs_test.go"}

// TestFacadeNamesAreUsed keeps the facade to one public surface. An
// exported name of the root package stays only when a facade user
// mentions it as qaoa2.Name or root.Name (the commands' import name),
// or when it appears in the signature of a func that stays. A name
// that fails both is reported with its place; delete it, or use it
// where users read.
func TestFacadeNamesAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]token.Pos{} // facade name → its declaration
	funcs := map[string]*ast.FuncDecl{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name], funcs[d.Name.Name] = d.Name.Pos(), d
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = s.Name.Pos()
						case *ast.ValueSpec:
							for _, id := range s.Names {
								names[id.Name] = id.Pos()
							}
						}
					}
				}
			}
		}
	}

	files := append([]string(nil), facadeUsers...)
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	mention := regexp.MustCompile(`\b(?:qaoa2|root)\.([A-Z]\w*)`)
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mention.FindAllSubmatch(data, -1) {
			used[string(m[1])] = true
		}
	}
	for grew := true; grew; {
		grew = false
		for name, fd := range funcs {
			if !used[name] {
				continue
			}
			ast.Inspect(fd.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && names[id.Name].IsValid() && !used[id.Name] {
					used[id.Name], grew = true, true
				}
				return true
			})
		}
	}

	var unused []string
	for name := range names {
		if ast.IsExported(name) && !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return names[unused[i]] < names[unused[j]] })
	for i, name := range unused {
		unused[i] = fmt.Sprintf("%s %s", fset.Position(names[name]), name)
	}
	if len(unused) > 0 {
		t.Fatalf("%d facade names no README, example, command or root doc test uses (delete them, or use them there):\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}

// reachAllowlist names the internal declarations no root reaches that
// stay anyway: test fixtures and oracles, each with the tests that use
// it; a method's key is pkg.Type.Method. TestEverythingIsReachable
// fails when an entry names nothing or a root now reaches it, so the
// list cannot outlive its reasons.
var reachAllowlist = map[string]string{
	"faults.New":                    chaosHarness,
	"faults.Injector":               chaosHarness,
	"faults.Site":                   chaosHarness,
	"faults.Class":                  chaosHarness,
	"faults.Decision":               chaosHarness,
	"faults.siteState":              chaosHarness,
	"faults.transport":              chaosHarness,
	"faults.truncatedBody":          chaosHarness,
	"faults.cutWriter":              chaosHarness,
	"graph.Complete":                "fixture in the tests of 14 packages",
	"graph.Path":                    "fixture in the tests of 7 packages",
	"graph.Bipartite":               "fixture in the tests of 8 packages",
	"ising.Hamiltonian.GroundState": "brute-force ground-state oracle of the qaoa2, serve and ising tests",
	"ising.Hamiltonian.EnergyBits":  "energy oracle of GroundState and of the backend, ising and qaoa2 reference tests",
	"hpc.VerifyNoOversubscription":  "scheduler invariant oracle of the Simulate tests in sched_test.go",
	"linalg.Mat.MatVec":             "product oracle of the Laplacian test in graph and the linalg solve tests",
	"maxcut.Cut.Validate":           "cut-validity oracle of the root, gw, hpc, maxcut, qaoa, qaoa2, rqaoa, runtime and solver tests",
	"partition.Modularity":          "CNM objective of TestGreedyModularityImprovesOverSingletons",
	"partition.GreedyModularity":    "CNM entry point of FuzzSizeCapped and the lazy-heap oracle tests",
	"qsim.Fidelity":                 "state comparison of the qsim, circuit and synth tests",
	"qsim.NewPlusState":             "uniform-superposition fixture of the qsim state, measure and engine tests",
	"qsim.SetKernelTier":            "in-process kernel-tier switch of the qsim tier tests, backend.TestFusedMatchesDense and qaoa.TestDecodeAgreesAcrossTiers",
	"qsim.State.Amp":                "amplitude read of the qsim, circuit, backend and qaoa tests",
	"qsim.State.NormSquared":        "unit-norm oracle of the qsim, circuit, backend and synth tests",
	"qsim.State.Z2Full":             "reduction check of the qsim, backend and qaoa Z2 tests",
	"qsim.State.ExpandZ2":           "expands reduced states for the full-vector comparisons of the qsim, backend and qaoa Z2 tests",
	"runtime.CanonicalRecords":      "checkpoint comparison of the runtime and hpc determinism tests",
	"solver.DefaultSelector":        "trained selector of the experiments, solver and qaoa2 tests",
	"synth.Synthesize":              "entry point of the synth semantics tests",
}

// chaosHarness is the reason the fault injector stays: package faults
// is the seeded chaos harness of the hpc chaos soak and the serve
// client tests, and no command, example or benchmark imports it.
const chaosHarness = "chaos harness of the hpc chaos soak and the serve client tests"

// TestEverythingIsReachable fails for every top-level func, type, var
// and method under internal/ that no command, example, benchmark or
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
// func a root reaches. Of the methods of reached types, one the command
// selects, one only another reached method selects (the fixpoint), one
// only a module interface lists and a String only fmt calls all pass,
// as does an allowlisted method oracle; a method only its test calls
// fails, and so do an exported method of a type the facade aliases but
// nothing selects and a method entry naming nothing.
func TestReachabilityOnSyntheticModule(t *testing.T) {
	lib := `// Package lib is the synthetic module's only internal package.
package lib

var _ = fromVarInit()

func init() { fromInit() }

func fromVarInit() int { return 1 }

func fromInit() {}

// Store is reached from the command; its method reaches viaMethod.
type Store struct{}

func (s Store) Get() int { return viaMethod() + s.inner() }

func (Store) inner() int { return 0 }

func (Store) Fetch() int { return 7 }

func (Store) String() string { return "store" }

func (Store) Probe() int { return 8 }

func (Store) Check() int { return 9 }

// Source is the interface the command asserts Store satisfies.
type Source interface{ Fetch() int }

// Table is aliased by the facade; nothing selects its method.
type Table struct{}

func (Table) Rows() int { return 10 }

func viaMethod() int { return 2 }

func BenchOnly() int { return 3 }

func Oracle() int { return 4 }

func Used() int { return 5 }

func Dead() int { return 6 }
`
	files := map[string]string{
		"go.mod":                   "module demo\n\ngo 1.23\n",
		"demo.go":                  "// Package demo is the synthetic facade.\npackage demo\n\nimport \"demo/internal/lib\"\n\n// Table is public.\ntype Table = lib.Table\n",
		"internal/lib/lib.go":      lib,
		"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestLib(t *testing.T) { _, _, _, _ = Oracle(), Dead(), Store{}.Probe(), Store{}.Check() }\n",
		"cmd/app/main.go":          "package main\n\nimport (\n\t\"fmt\"\n\n\t\"demo/internal/lib\"\n)\n\nvar _ lib.Source = lib.Store{}\n\nfunc main() { fmt.Println(lib.Store{}.Get(), lib.Used(), lib.Store{}) }\n",
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
		"lib.Oracle":       "oracle of TestLib",
		"lib.Store.Check":  "oracle of TestLib",
		"lib.Used":         "stale: the command calls it",
		"lib.Gone":         "stale: no such func",
		"lib.Store.Vanish": "stale: no such method",
	}
	got, err := unreachable(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	line := func(decl string) int { return strings.Count(lib[:strings.Index(lib, decl)], "\n") + 1 }
	want := []string{
		"allowlisted but no such func, type, var or method: lib.Gone",
		"allowlisted but no such func, type, var or method: lib.Store.Vanish",
		"allowlisted but reached from a root: lib.Used",
		fmt.Sprintf("internal/lib/lib.go:%d lib.Store.Probe", line("func (Store) Probe")),
		fmt.Sprintf("internal/lib/lib.go:%d lib.Table.Rows", line("func (Table) Rows")),
		fmt.Sprintf("internal/lib/lib.go:%d lib.Dead", line("func Dead")),
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

// stdlibMethods names the methods the standard library calls through
// an interface: fmt's Stringer, Formatter and GoStringer; error and the
// errors package's Unwrap, Is and As; the json and encoding text
// (un)marshalers; http.Handler, RoundTripper and Flusher; sort.Interface
// and heap.Interface; the io readers, writers and closers; net.Error.
// A reached type's method of one of these names is reached even when no
// module code selects it.
var stdlibMethods = []string{
	"String", "Error", "Unwrap", "Is", "As", "Format", "GoString",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"ServeHTTP", "RoundTrip", "Flush",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close", "WriteTo", "ReadFrom",
	"Timeout", "Temporary",
}

// reachDecl is a node the walk visits, with its file: a root, or a
// top-level declaration of a non-test file under internal/ (a func, a
// type, a var or const spec, or a method).
type reachDecl struct {
	node     ast.Node
	file     *reachFile
	pos      string
	reported bool   // funcs, types, vars and methods; consts are followed, never reported
	recv     string // a method's receiver type, "path.Type"; "" for the rest
}

// unreachable parses the module at root with go/ast alone and returns,
// sorted, "file:line pkg.Name" for each top-level func, type and var,
// and "file:line pkg.Type.Method" for each method of a reached type, in
// a non-test file under internal/ that no root reaches and allow does
// not name, plus a line for each allow entry that names no such
// declaration or names one a root reaches. pkg is the import path below
// internal/.
//
// The roots are every non-test file outside internal/ (the facade,
// cmd/*, examples/*), every file under bench/ (its own module, which
// decorates internals), the module root's bench_test.go (the experiment
// renderers), and each package-level var initializer and init func.
// An identifier reaches the same-package declaration of that name and
// an import.Name selector the imported package's. A method is reached
// when its receiver type is and one of these holds: reached code
// selects its name (x.Name); an interface type in reached code lists
// it; or the standard library calls it (stdlibMethods). Aliasing a type
// in the facade reaches the type, not its methods. The walk runs to a fixpoint, so a
// method reached late still reaches what it selects. Matching is by
// name only, so a local that shadows a top-level name keeps it and a
// selected name keeps that method on every reached type: the check errs
// toward keeping code.
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
	pkgNames := map[string]string{}    // import path → package name
	decls := map[string][]*reachDecl{} // "path.Name" or "path.Type.Method" → its declarations
	methods := map[string][]string{}   // "path.Type" → its methods' keys
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
		add := func(key string, name *ast.Ident, node ast.Node, reported bool, recv string) {
			if name.Name == "_" {
				return
			}
			if decls[key] == nil && recv != "" {
				methods[recv] = append(methods[recv], key)
			}
			decls[key] = append(decls[key], &reachDecl{node, rf,
				fmt.Sprintf("%s:%d", rel, fset.Position(name.Pos()).Line), reported, recv})
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					recv := pkg + "." + receiverType(d.Recv.List[0].Type)
					add(recv+"."+d.Name.Name, d.Name, d, true, recv)
				case d.Name.Name == "init":
					roots = append(roots, &reachDecl{node: d, file: rf})
				default:
					add(pkg+"."+d.Name.Name, d.Name, d, true, "")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(pkg+"."+s.Name.Name, s.Name, s, true, "")
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(pkg+"."+name.Name, name, s, d.Tok == token.VAR, "")
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
	live := map[string]bool{}        // method names reached code selects, lists or the stdlib calls
	waiting := map[string][]string{} // method name → reached types' methods of that name, not yet live
	work := roots
	reach := func(key string) {
		reached[key] = true
		work = append(work, decls[key]...)
	}
	liven := func(name string) {
		if live[name] {
			return
		}
		live[name] = true
		for _, m := range waiting[name] {
			reach(m)
		}
		delete(waiting, name)
	}
	mark := func(key string) {
		if reached[key] || decls[key] == nil {
			return
		}
		reach(key)
		for _, m := range methods[key] {
			name := m[len(key)+1:]
			if live[name] {
				reach(m)
			} else {
				waiting[name] = append(waiting[name], m)
			}
		}
	}
	for _, name := range stdlibMethods {
		live[name] = true
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
				liven(x.Sel.Name)
				ast.Inspect(x.X, visit)
				return false
			case *ast.InterfaceType:
				for _, field := range x.Methods.List {
					for _, name := range field.Names {
						liven(name.Name)
					}
				}
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
		if !ds[0].reported || (ds[0].recv != "" && !reached[ds[0].recv]) {
			continue // a const, or a method of a type that is reported itself
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
			problems = append(problems, fmt.Sprintf("allowlisted but no such func, type, var or method: %s", name))
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
