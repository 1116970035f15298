package qaoa2

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
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

// shortSolver returns a cut with no spins, whatever the graph.
type shortSolver struct{}

func (shortSolver) Name() string { return "short" }

func (shortSolver) SolveSub(*graph.Graph, *rng.Rand) (maxcut.Cut, error) {
	return maxcut.Cut{}, nil
}

func TestSolveLeavesNoGoroutineBehind(t *testing.T) {
	g := graph.ErdosRenyi(48, 0.15, graph.Unweighted, rng.New(3))
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		opts := Options{MaxQubits: 6, Solver: solver.ExactSolver{}, Parallelism: 8, Seed: uint64(i)}
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
// and fixed. The solve makes 58 allocations (it formats no task key:
// nothing reads one; the parts' streams are one array); the ceiling is
// that plus a tenth, rounded up
// (toolchains differ by a few), so bookkeeping
// added per task or per solve shows here long before it shows in a
// benchmark. Under -race the pools fmt and the partitioner draw on drop
// a random share of what they are handed, so the count is not fixed.
func TestSolveAllocationCeiling(t *testing.T) {
	g := twoCliquesBridge(6)
	opts := Options{MaxQubits: 6, Solver: solver.ExactSolver{}, Parallelism: 1, Seed: 1}
	res, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubGraphs != 2 || res.Levels != 1 {
		t.Fatalf("want 2 parts and one merge level, got %d and %d", res.SubGraphs, res.Levels)
	}
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops a random share of what it is handed")
	}
	const ceiling = 64
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
		{"short sub-cut", Options{MaxQubits: 4, Partition: thirds, Solver: shortSolver{}, Parallelism: 1}, "part 0 has 4 nodes but cut has 0 spins"},
	}
	for _, tc := range cases {
		if tc.opts.Solver == nil {
			tc.opts.Solver = solver.ExactSolver{}
		}
		_, err := Solve(g, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
