package qaoa2

import (
	"math"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

func fastQAOA() solver.Solver {
	return solver.QAOASolver{Opts: qaoa.Options{Layers: 2, MaxIters: 40}}
}

func TestSolveSmallGraphDirect(t *testing.T) {
	g := graph.Complete(5)
	res, err := Solve(g, Options{MaxQubits: 8, Solver: solver.ExactSolver{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value != 6 {
		t.Fatalf("K5 direct %v want 6", res.Cut.Value)
	}
	if res.Levels != 0 || res.SubGraphs != 1 {
		t.Fatalf("direct solve levels=%d subgraphs=%d", res.Levels, res.SubGraphs)
	}
}

func TestSolveDividesAndMerges(t *testing.T) {
	r := rng.New(1)
	g := graph.ErdosRenyi(24, 0.2, graph.Unweighted, r)
	res, err := Solve(g, Options{MaxQubits: 8, Solver: solver.ExactSolver{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs < 2 {
		t.Fatalf("no division happened: %d sub-graphs", res.SubGraphs)
	}
	if res.Levels < 1 {
		t.Fatalf("levels %d", res.Levels)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.IntraCut+res.CrossCut-res.Cut.Value) > 1e-9 {
		t.Fatalf("intra %v + cross %v != total %v", res.IntraCut, res.CrossCut, res.Cut.Value)
	}
}

func TestMergeImprovesOverNaiveStitch(t *testing.T) {
	// The merge step must recover at least the sum of sub-graph cuts
	// (flipping can only add cross-edge weight with the exact merge
	// solver: the all-+1 merge assignment reproduces the stitched cut
	// exactly when nothing crosses... in general sum of intra cuts).
	r := rng.New(2)
	for trial := 0; trial < 5; trial++ {
		g := graph.ErdosRenyi(20, 0.3, graph.UniformWeights, r)
		res, err := Solve(g, Options{MaxQubits: 7, Solver: solver.ExactSolver{}, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		sumSub := 0.0
		for _, sr := range res.SubReports {
			sumSub += sr.Value
		}
		if res.Cut.Value < sumSub-1e-9 {
			t.Fatalf("trial %d: total %v below sum of sub-cuts %v", trial, res.Cut.Value, sumSub)
		}
	}
}

func TestQAOA2WithExactLeavesNearOptimum(t *testing.T) {
	// With exact leaf and merge solvers on a small graph, QAOA² is a
	// heuristic but should stay close to the true optimum.
	r := rng.New(3)
	ratios := 0.0
	trials := 5
	for trial := 0; trial < trials; trial++ {
		g := graph.ErdosRenyi(18, 0.25, graph.Unweighted, r)
		if g.M() == 0 {
			trials--
			continue
		}
		opt, err := maxcut.BruteForce(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(g, Options{MaxQubits: 6, Solver: solver.ExactSolver{}, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cut.Value > opt.Value+1e-9 {
			t.Fatalf("QAOA² exceeded optimum: %v > %v", res.Cut.Value, opt.Value)
		}
		ratios += res.Cut.Value / opt.Value
	}
	if avg := ratios / float64(trials); avg < 0.85 {
		t.Fatalf("average approximation ratio %v below 0.85", avg)
	}
}

func TestQAOALeafSolver(t *testing.T) {
	r := rng.New(4)
	g := graph.ErdosRenyi(20, 0.25, graph.Unweighted, r)
	res, err := Solve(g, Options{MaxQubits: 7, Solver: fastQAOA(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.SubReports {
		if sr.Solver != "qaoa" {
			t.Fatalf("leaf solver %q", sr.Solver)
		}
		if sr.Nodes > 7 {
			t.Fatalf("sub-graph size %d exceeds cap", sr.Nodes)
		}
	}
}

func TestGWLeafSolver(t *testing.T) {
	r := rng.New(5)
	g := graph.ErdosRenyi(20, 0.25, graph.Unweighted, r)
	res, err := Solve(g, Options{MaxQubits: 7, Solver: solver.GWSolver{}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestBestOfSolverTakesBetter(t *testing.T) {
	g := graph.Bipartite(4, 4)
	best := solver.BestOfSolver{Solvers: []solver.Solver{solver.RandomSolver{}, solver.ExactSolver{}}}
	cut, err := best.SolveSub(g, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if cut.Value != 16 {
		t.Fatalf("best-of missed exact value: %v", cut.Value)
	}
	if best.Name() != "best" {
		t.Fatal("name")
	}
}

func TestBestOfSolverEmpty(t *testing.T) {
	if _, err := (solver.BestOfSolver{}).SolveSub(graph.Complete(2), rng.New(1)); err == nil {
		t.Fatal("empty best-of accepted")
	}
}

func TestBestOfSubCutsMatchExact(t *testing.T) {
	// With the exact solver in the pool, every PER-SUB-GRAPH best-of
	// value must equal the exact optimum of that sub-graph. (The merged
	// TOTAL can differ: equal-value sub-cuts with different spin
	// patterns interact differently across cut edges.)
	r := rng.New(7)
	g := graph.ErdosRenyi(24, 0.2, graph.Unweighted, r)
	mk := func(s solver.Solver, seed uint64) []rt.SubReport {
		res, err := Solve(g, Options{MaxQubits: 8, Solver: s, MergeSolver: solver.ExactSolver{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res.SubReports
	}
	best := mk(solver.BestOfSolver{Solvers: []solver.Solver{solver.GWSolver{}, solver.ExactSolver{}}}, 9)
	exact := mk(solver.ExactSolver{}, 9)
	if len(best) != len(exact) {
		t.Fatalf("partition changed between runs: %d vs %d parts", len(best), len(exact))
	}
	for i := range best {
		if math.Abs(best[i].Value-exact[i].Value) > 1e-9 {
			t.Fatalf("sub-graph %d: best-of %v != exact %v", i, best[i].Value, exact[i].Value)
		}
	}
}

func TestMergeRecursionManyParts(t *testing.T) {
	// Cap 4 on a 64-node graph forces ≥16 parts, so the merge graph
	// (≥16 nodes) must itself recurse.
	r := rng.New(8)
	g := graph.ErdosRenyi(64, 0.15, graph.Unweighted, r)
	res, err := Solve(g, Options{MaxQubits: 4, Solver: solver.ExactSolver{}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 2 {
		t.Fatalf("expected multi-level merge, levels=%d subgraphs=%d", res.Levels, res.SubGraphs)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestAllSolversProduceValidCuts(t *testing.T) {
	r := rng.New(9)
	g := graph.ErdosRenyi(10, 0.4, graph.UniformWeights, r)
	solvers := []solver.Solver{
		fastQAOA(), solver.GWSolver{}, solver.RandomSolver{Trials: 3},
		solver.AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 50}},
		solver.ExactSolver{}, solver.OneExchangeSolver{},
		solver.BestOfSolver{Solvers: []solver.Solver{solver.GWSolver{}, solver.RandomSolver{}}},
	}
	for _, s := range solvers {
		cut, err := s.SolveSub(g, rng.New(10))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := cut.Validate(g); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestSolverNames(t *testing.T) {
	names := map[string]solver.Solver{
		"qaoa":         solver.QAOASolver{},
		"gw":           solver.GWSolver{},
		"random":       solver.RandomSolver{},
		"anneal":       solver.AnnealSolver{},
		"exact":        solver.ExactSolver{},
		"one-exchange": solver.OneExchangeSolver{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Fatalf("Name() = %q want %q", s.Name(), want)
		}
	}
}

func TestExplicitPartitionOverride(t *testing.T) {
	r := rng.New(30)
	g := graph.ErdosRenyi(12, 0.4, graph.Unweighted, r)
	parts := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	res, err := Solve(g, Options{MaxQubits: 4, Solver: solver.ExactSolver{}, Partition: parts, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs != 3 {
		t.Fatalf("sub-graphs %d want 3", res.SubGraphs)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Rejected partitions: TestErrorsNameThePartOrNode.
}

func TestEmptyGraph(t *testing.T) {
	res, err := Solve(graph.New(0), Options{})
	if err != nil || res.Cut.Value != 0 {
		t.Fatalf("empty graph %+v err=%v", res, err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	r := rng.New(11)
	g := graph.ErdosRenyi(20, 0.3, graph.Unweighted, r)
	a, err := Solve(g, Options{MaxQubits: 6, Solver: solver.GWSolver{}, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, Options{MaxQubits: 6, Solver: solver.GWSolver{}, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut.Value != b.Cut.Value {
		t.Fatalf("nondeterministic: %v vs %v", a.Cut.Value, b.Cut.Value)
	}
}

func TestSummarizeSubReports(t *testing.T) {
	s := SummarizeSubReports([]rt.SubReport{
		{Solver: "qaoa", Value: 2},
		{Solver: "gw", Value: 3},
		{Solver: "qaoa", Value: 1},
	})
	if !strings.Contains(s, "qaoa: 2 sub-graphs") || !strings.Contains(s, "gw: 1 sub-graphs") {
		t.Fatalf("summary %q", s)
	}
}

func TestLargeSparseGraphWithClassicalLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph in -short mode")
	}
	r := rng.New(12)
	g := graph.ErdosRenyi(300, 0.05, graph.Unweighted, r)
	res, err := Solve(g, Options{MaxQubits: 16, Solver: solver.GWSolver{}, MergeSolver: solver.GWSolver{}, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Must beat a single random cut handily.
	rc := maxcut.RandomCut(g, 1, rng.New(14))
	if res.Cut.Value <= rc.Value {
		t.Fatalf("QAOA² %v not better than random %v", res.Cut.Value, rc.Value)
	}
}

func BenchmarkQAOA2Exact64(b *testing.B) {
	g := graph.ErdosRenyi(64, 0.15, graph.Unweighted, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, Options{MaxQubits: 10, Solver: solver.ExactSolver{}, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
