package qaoa2

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// The QAOA² divide-and-conquer invariants, property-tested across
// random graph ensembles, seeds and qubit budgets, with the executor at
// Parallelism 1/4/GOMAXPROCS held to the reference recursion
// (reference_test.go):
//
//  1. IntraCut + CrossCut == Cut.Value (1e-9)
//  2. every spin is ±1 and every node carries one (disjoint cover)
//  3. Cut.Value equals the maxcut recomputation from the spins
//  4. first-level sub-reports respect the qubit budget
//  5. the executor returns the reference recursion's Result exactly

// checkInvariants asserts 1–4 on one solve result.
func checkInvariants(t *testing.T, label string, g *graph.Graph, res *Result, maxQubits int) {
	t.Helper()
	if len(res.Cut.Spins) != g.N() {
		t.Fatalf("%s: %d spins for %d nodes", label, len(res.Cut.Spins), g.N())
	}
	for v, s := range res.Cut.Spins {
		if s != 1 && s != -1 {
			t.Fatalf("%s: node %d has spin %d", label, v, s)
		}
	}
	if got := g.CutValue(res.Cut.Spins); math.Abs(got-res.Cut.Value) > 1e-9 {
		t.Fatalf("%s: stored value %v, recomputed %v", label, res.Cut.Value, got)
	}
	if err := res.Cut.Validate(g); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if math.Abs(res.IntraCut+res.CrossCut-res.Cut.Value) > 1e-9 {
		t.Fatalf("%s: intra %v + cross %v != value %v",
			label, res.IntraCut, res.CrossCut, res.Cut.Value)
	}
	if len(res.SubReports) != res.SubGraphs {
		t.Fatalf("%s: %d reports for %d sub-graphs", label, len(res.SubReports), res.SubGraphs)
	}
	total := 0
	for i, sr := range res.SubReports {
		if sr.Nodes <= 0 || sr.Nodes > maxQubits {
			t.Fatalf("%s: sub-report %d has %d nodes, budget %d", label, i, sr.Nodes, maxQubits)
		}
		total += sr.Nodes
	}
	if res.SubGraphs > 1 && total != g.N() {
		t.Fatalf("%s: sub-graph nodes sum to %d, graph has %d", label, total, g.N())
	}
}

func cheapAnneal() solver.Solver {
	return solver.AnnealSolver{Opts: maxcut.AnnealOptions{Sweeps: 30}}
}

func TestInvariantsAcrossRandomGraphs(t *testing.T) {
	type family struct {
		name string
		gen  func(n int, r *rng.Rand) *graph.Graph
	}
	families := []family{
		{"erdos-renyi-sparse", func(n int, r *rng.Rand) *graph.Graph {
			return graph.ErdosRenyi(n, 0.12, graph.Unweighted, r)
		}},
		{"erdos-renyi-weighted", func(n int, r *rng.Rand) *graph.Graph {
			return graph.ErdosRenyi(n, 0.3, graph.UniformWeights, r)
		}},
		{"regular3", func(n int, r *rng.Rand) *graph.Graph {
			return graph.Regular3(n&^1, r) // even n
		}},
	}
	for _, fam := range families {
		for _, n := range []int{12, 24, 40} {
			for _, mq := range []int{4, 8, 16} {
				for seed := uint64(0); seed < 2; seed++ {
					label := fmt.Sprintf("%s/n%d/q%d/s%d", fam.name, n, mq, seed)
					g := fam.gen(n, rng.New(seed*31+uint64(n)))
					opts := Options{MaxQubits: mq, Solver: cheapAnneal(),
						MergeSolver: cheapAnneal(), Seed: seed}
					res := solveVsReference(t, label, g, opts)
					checkInvariants(t, label, g, res, mq)
				}
			}
		}
	}
}

func TestInvariantsWithExactSolver(t *testing.T) {
	for _, mq := range []int{4, 8} {
		for seed := uint64(0); seed < 3; seed++ {
			label := fmt.Sprintf("exact/q%d/s%d", mq, seed)
			g := graph.ErdosRenyi(26, 0.2, graph.Unweighted, rng.New(seed+100))
			opts := Options{MaxQubits: mq, Solver: solver.ExactSolver{}, Seed: seed}
			res := solveVsReference(t, label, g, opts)
			checkInvariants(t, label, g, res, mq)
		}
	}
}

func TestInvariantsWithQAOALeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("QAOA leaves in -short mode")
	}
	g := graph.ErdosRenyi(20, 0.25, graph.Unweighted, rng.New(42))
	opts := Options{MaxQubits: 7, Solver: fastQAOA(), Seed: 42}
	res := solveVsReference(t, "qaoa-leaves", g, opts)
	checkInvariants(t, "qaoa-leaves", g, res, 7)
}

func TestInvariantsPathologicalGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		mq   int
	}{
		{"edgeless", graph.New(20), 4},
		{"single-node", graph.New(1), 4},
		{"complete", graph.Complete(18), 6},
		{"star-hub", starGraph(25), 5},
		{"two-cliques-bridge", twoCliquesBridge(9), 6},
		{"isolated-plus-clique", isolatedPlusClique(12, 4), 4},
	}
	for _, tc := range cases {
		opts := Options{MaxQubits: tc.mq, Solver: cheapAnneal(), Seed: 3}
		res := solveVsReference(t, tc.name, tc.g, opts)
		if tc.g.N() > 0 {
			checkInvariants(t, tc.name, tc.g, res, tc.mq)
		}
	}
}

// TestInvariantsGuardCases drives the three branches of the merge
// decision that random ensembles rarely reach, against the reference:
// an edgeless merge graph (every part keeps its orientation), an
// all-singleton partition (contraction stalls, 1-exchange orients the
// merge nodes instead of dividing forever) and an explicit Partition.
func TestInvariantsGuardCases(t *testing.T) {
	singletons := func(n int) [][]int {
		parts := make([][]int, n)
		for v := range parts {
			parts[v] = []int{v}
		}
		return parts
	}
	weighted := graph.ErdosRenyi(14, 0.5, graph.UniformWeights, rng.New(5))
	cases := []struct {
		name   string
		g      *graph.Graph
		mq     int
		parts  [][]int
		levels int
	}{
		{"edgeless-merge", isolatedPlusClique(12, 4), 4, nil, 1},
		{"singleton-stall", weighted, 4, singletons(weighted.N()), 1},
		{"explicit-partition", weighted, 5, [][]int{{0, 3, 6, 9, 12}, {1, 4, 7, 10, 13}, {2, 5, 8, 11}}, 1},
		{"explicit-partition-recursing", weighted, 3, [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}}, 2},
	}
	for _, tc := range cases {
		opts := Options{MaxQubits: tc.mq, Solver: cheapAnneal(), MergeSolver: cheapAnneal(),
			Partition: tc.parts, Seed: 11}
		res := solveVsReference(t, tc.name, tc.g, opts)
		checkInvariants(t, tc.name, tc.g, res, tc.mq)
		if res.Levels != tc.levels {
			t.Fatalf("%s: %d levels, want %d", tc.name, res.Levels, tc.levels)
		}
	}
	// The stall guard's answer is the 1-exchange cut of the signed merge
	// graph, not the merge solver's.
	stalled, err := Solve(weighted, Options{MaxQubits: 4, Solver: cheapAnneal(),
		MergeSolver: failingSolver{}, Partition: singletons(weighted.N()), Seed: 11})
	if err != nil {
		t.Fatalf("stall guard consulted the merge solver: %v", err)
	}
	if stalled.Levels != 1 {
		t.Fatalf("stall guard used %d levels", stalled.Levels)
	}
}

// starGraph is one hub connected to n-1 leaves — the "single giant
// hub" pathology for the partitioner.
func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1)
	}
	return g
}

// twoCliquesBridge is two k-cliques joined by one edge.
func twoCliquesBridge(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.MustAddEdge(i, j, 1)
			g.MustAddEdge(k+i, k+j, 1)
		}
	}
	g.MustAddEdge(0, k, 1)
	return g
}

// isolatedPlusClique is a k-clique plus isolated nodes: the merge
// graph is edgeless while exceeding the cap, exercising the recursion
// guard.
func isolatedPlusClique(n, k int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.MustAddEdge(i, j, 1)
		}
	}
	return g
}
