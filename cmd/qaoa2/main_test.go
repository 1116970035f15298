package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	root "qaoa2"
	"qaoa2/internal/serve"
)

// TestUsageErrorsExitTwo pins the CLI contract: usage errors report to
// stderr and return 2; operational failures return 1.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "-bogus"},
		{"positional args", []string{"stray"}, "unexpected arguments"},
		{"unknown solver", []string{"-solver", "bogus"}, "unknown solver"},
		{"unknown merge", []string{"-merge", "bogus"}, "unknown solver"},
		{"unknown backend", []string{"-backend", "bogus"}, "bogus"},
		{"retired sharded backend", []string{"-backend", "fused-dist:2"}, "unknown backend \"fused-dist:2\""},
		{"retired noise backend", []string{"-backend", "noisy"}, "unknown backend \"noisy\" (want fused|fused-z2|fused-full|dense)"},
		{"retired portfolio solver", []string{"-solver", "portfolio"}, "unknown solver \"portfolio\""},
		{"retired portfolio budget", []string{"-portfolio-budget", "5"}, "flag provided but not defined: -portfolio-budget"},
	}
	for _, tc := range cases {
		var out, errb strings.Builder
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Fatalf("%s: exited %d, want 2", tc.name, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Fatalf("%s: stderr missing %q:\n%s", tc.name, tc.want, errb.String())
		}
		if out.Len() > 0 {
			t.Fatalf("%s: usage error wrote to stdout:\n%s", tc.name, out.String())
		}
	}
}

// TestOperationalErrorExitOne: a well-formed invocation that fails at
// run time (missing instance file) exits 1.
func TestOperationalErrorExitOne(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-in", filepath.Join(t.TempDir(), "missing.txt")}, &out, &errb)
	if code != 1 {
		t.Fatalf("missing instance file exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "missing.txt") {
		t.Fatalf("stderr missing the file name:\n%s", errb.String())
	}
}

// TestOverflowingWeightsExitOne: finite weights whose absolute sum
// overflows bound no cut value; reading the instance refuses the graph,
// so no registry solver prints a cut for it.
// The second file's pair 1-2 is listed twice: each listing alone rounds
// away against float64's largest value, their merged sum does not.
func TestOverflowingWeightsExitOne(t *testing.T) {
	for _, text := range []string{
		"3 2\n0 1 1e308\n1 2 1e308\n",
		"3 3\n0 1 1.7976931348623157e308\n1 2 7e291\n1 2 7e291\n",
	} {
		path := filepath.Join(t.TempDir(), "f.txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, name := range root.SolverNames() {
			var out, errb strings.Builder
			code := run([]string{"-in", path, "-solver", name, "-merge", name, "-layers", "1"}, &out, &errb)
			if code != 1 || !strings.Contains(errb.String(), "must be finite") || strings.Contains(out.String(), "cut value") {
				t.Fatalf("%q, %s: exit %d, stderr:\n%s\nstdout:\n%s", text, name, code, errb.String(), out.String())
			}
		}
	}
}

// TestRunSolvesSmallInstance exercises the happy path end-to-end.
func TestRunSolvesSmallInstance(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-nodes", "24", "-prob", "0.3", "-maxqubits", "8",
		"-solver", "anneal", "-merge", "exact", "-seed", "5"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"instance:", "cut value:", "sub-graphs:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCLIAndHTTPAcceptIdenticalSolverNames pins the registry dedup:
// the CLI (-solver) and the HTTP surface (serve.ResolveSolvers, the
// POST /v1/solve resolver) both delegate to internal/solver, so they
// accept the IDENTICAL name set — every registered name works
// end-to-end on both, and an unknown name is rejected by both.
func TestCLIAndHTTPAcceptIdenticalSolverNames(t *testing.T) {
	names := root.SolverNames()
	want := []string{"anneal", "best", "exact", "gw", "ml-adaptive", "one-exchange",
		"qaoa", "random", "rqaoa", "sdp-gw"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registry names = %v, want %v (update both this test and the docs when adding solvers)", names, want)
	}
	for _, name := range names {
		// HTTP surface: the daemon's resolver must build the name in
		// both roles.
		if _, err := serve.ResolveSolvers(serve.SolveRequest{Solver: name, Merge: name, Layers: 1}); err != nil {
			t.Fatalf("serve rejects registry solver %q: %v", name, err)
		}
		// CLI surface: a full tiny solve with the name in both roles.
		var out, errb strings.Builder
		args := []string{"-nodes", "8", "-prob", "0.4", "-maxqubits", "8",
			"-layers", "1", "-iters", "4", "-solver", name, "-merge", name, "-seed", "3"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("cli rejects registry solver %q: exit %d, stderr:\n%s", name, code, errb.String())
		}
		if !strings.Contains(out.String(), "cut value:") {
			t.Fatalf("%q: no cut in output:\n%s", name, out.String())
		}
	}
	// And both surfaces reject an unknown name.
	if _, err := serve.ResolveSolvers(serve.SolveRequest{Solver: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("serve accepted unknown solver (err %v)", err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-solver", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("cli accepted unknown solver: exit %d", code)
	}
}

// TestSolverHelpListsRegistry: the -solver flag's help text is derived
// from the live registry, so it can never go stale.
func TestSolverHelpListsRegistry(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-h"}, &out, &errb); code != 2 {
		t.Fatalf("-h exited %d, want 2", code)
	}
	for _, name := range root.SolverNames() {
		if !strings.Contains(errb.String(), name) {
			t.Fatalf("usage text missing registry solver %q:\n%s", name, errb.String())
		}
	}
}

func TestLoadGraphGenerated(t *testing.T) {
	g, err := loadGraph("", 10, 0.5, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Fatalf("n=%d", g.N())
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("3 2\n0 1 1.5\n1 2 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path, 0, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if _, err := loadGraph(filepath.Join(dir, "missing.txt"), 0, 0, false, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}
