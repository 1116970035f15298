package qaoa2

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

// The contract of the single execution path: Solve is the task-graph
// executor and nothing else, so what a plain call (no listener, no
// checkpoint, no interrupt) costs and leaves behind is pinned here.

// failingSolver fails every solve.
type failingSolver struct{}

func (failingSolver) Name() string { return "failing" }

func (failingSolver) SolveSub(*graph.Graph, *rng.Rand) (maxcut.Cut, error) {
	return maxcut.Cut{}, errors.New("device offline")
}

func TestSolveLeavesNoGoroutineBehind(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.15, graph.Unweighted, rng.New(3))
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		opts := Options{MaxQubits: 6, Solver: ExactSolver{}, Parallelism: 8, Seed: uint64(i)}
		if _, err := Solve(g, opts); err != nil {
			t.Fatal(err)
		}
		// A failed solve must wind its pool down too.
		opts.MergeSolver = failingSolver{}
		if _, err := Solve(g, opts); err == nil {
			t.Fatal("failing merge solver accepted")
		}
	}
	// Solve returns once the graph drains; idle workers are then between
	// their last wake-up and their return.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d still alive after the solves returned",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveAllocationCeiling pins what the executor itself allocates:
// two 6-node parts with exact leaves, so the solvers' share is small
// and fixed. The synchronous recursion did this solve in 225
// allocations; the executor's tasks, ids and pool make it 255. The
// ceiling is that plus a tenth (toolchains differ by a few), so
// bookkeeping added per task or per solve shows here long before it
// shows in a benchmark.
func TestSolveAllocationCeiling(t *testing.T) {
	g := twoCliquesBridge(6)
	opts := Options{MaxQubits: 6, Solver: ExactSolver{}, Parallelism: 1, Seed: 1}
	res, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs != 2 || res.Levels != 1 {
		t.Fatalf("want 2 parts and one merge level, got %d and %d", res.SubGraphs, res.Levels)
	}
	const ceiling = 280
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(g, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("a 2-part exact solve allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestErrorsNameThePartOrNode: every way an input can be refused still
// says which part, node or sub-graph was at fault.
func TestErrorsNameThePartOrNode(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.4, graph.Unweighted, rng.New(30))
	thirds := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"empty part", Options{MaxQubits: 4, Partition: [][]int{{0, 1, 2, 3}, {}}}, "part 1 is empty"},
		{"oversized part", Options{MaxQubits: 3, Partition: thirds}, "part 0 has 4 nodes, budget 3"},
		{"uncovered node", Options{MaxQubits: 4, Partition: thirds[:2]}, "node 8 not covered"},
		{"node in two parts", Options{MaxQubits: 4, Partition: [][]int{{0, 1, 2, 3}, {3, 4, 5, 6}}}, "node 3 appears in two parts"},
		{"node outside graph", Options{MaxQubits: 4, Partition: [][]int{{0, 1, 2, 12}}}, "part 0 references node 12"},
		{"failing sub-solver", Options{MaxQubits: 4, Partition: thirds, Solver: failingSolver{}, Parallelism: 1}, "sub-graph 0: device offline"},
		{"failing merge solver", Options{MaxQubits: 4, Partition: thirds, MergeSolver: failingSolver{}}, "stage 0 merge: device offline"},
	}
	for _, tc := range cases {
		if tc.opts.Solver == nil {
			tc.opts.Solver = ExactSolver{}
		}
		_, err := Solve(g, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	cuts := make([]maxcut.Cut, len(thirds))
	if _, _, err := MergeSubSolutions(g, thirds, cuts[:2], Options{Solver: ExactSolver{}}); err == nil ||
		!strings.Contains(err.Error(), "3 parts but 2 cuts") {
		t.Errorf("parts/cuts mismatch: error %v", err)
	}
	if _, _, err := MergeSubSolutions(g, thirds, cuts, Options{Solver: ExactSolver{}}); err == nil ||
		!strings.Contains(err.Error(), "part 0 has 4 nodes but cut has 0 spins") {
		t.Errorf("short cut: error %v", err)
	}
}

// TestMergeSubSolutionsMatchesReference: entering the executor behind
// already-solved parts (what hpc.CoordinatedSolve does) gives the
// reference merge's cut and level count — one merge solve, a merge
// graph that divides again, and the two guards.
func TestMergeSubSolutionsMatchesReference(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.15, graph.UniformWeights, rng.New(21))
	singletons := make([][]int, g.N())
	for v := range singletons {
		singletons[v] = []int{v}
	}
	cases := []struct {
		name      string
		g         *graph.Graph
		mq        int
		parts     [][]int
		minLevels int
	}{
		{"one merge solve", g, 12, nil, 1},
		{"merge graph divides again", g, 4, nil, 2},
		{"edgeless merge graph", isolatedPlusClique(12, 4), 4, nil, 1},
		{"stalled contraction", g, 4, singletons, 1},
	}
	for _, tc := range cases {
		opts := Options{MaxQubits: tc.mq, Solver: cheapAnneal(), MergeSolver: cheapAnneal(), Seed: 9}
		parts := tc.parts
		if parts == nil {
			parts, _ = fixedPartition(tc.g, tc.mq)
		}
		cuts := make([]maxcut.Cut, len(parts))
		for i, part := range parts {
			sub, _, err := tc.g.InducedSubgraph(part)
			if err != nil {
				t.Fatal(err)
			}
			if cuts[i], err = opts.Solver.SolveSub(sub, rng.New(opts.Seed).Split(uint64(i)+0x517c)); err != nil {
				t.Fatal(err)
			}
		}
		defaulted, err := opts.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		want, wantLevels, _, err := referenceMerge(tc.g, parts, cuts, defaulted)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			opts.Parallelism = par
			got, levels, err := MergeSubSolutions(tc.g, parts, cuts, opts)
			if err != nil {
				t.Fatalf("%s par=%d: %v", tc.name, par, err)
			}
			if levels != wantLevels || levels < tc.minLevels || got.Value != want.Value || !slices.Equal(got.Spins, want.Spins) {
				t.Fatalf("%s par=%d: cut %v in %d levels, reference %v in %d (want at least %d)",
					tc.name, par, got.Value, levels, want.Value, wantLevels, tc.minLevels)
			}
		}
	}
}
