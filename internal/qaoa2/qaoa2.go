// Package qaoa2 implements QAOA-in-QAOA (Zhou et al.; paper §3.3), the
// repository's primary contribution: large MaxCut instances are divided
// into qubit-sized sub-graphs by greedy modularity, the sub-graphs are
// solved in parallel by a pluggable solver — simulated QAOA, classical
// Goemans-Williamson, or a composite strategy making the run-time
// quantum-or-classical choice the paper's SLURM workflow enables — and
// the sub-solutions are merged by solving a signed contracted graph,
// recursively if it still exceeds the qubit budget.
//
// The package is the front of that algorithm, not its executor: Solve
// resolves Options (defaults, the checkpoint config tag) and hands the
// solve to internal/runtime, the one implementation of partition →
// sub-solve → merge → stitch. No goroutine starts here.
package qaoa2

import (
	"fmt"
	"sort"

	"qaoa2/internal/graph"
	rt "qaoa2/internal/runtime"
	"qaoa2/internal/solver"
)

// Options configures Solve.
type Options struct {
	// MaxQubits is the sub-graph node cap n — the size of the quantum
	// device (default 16).
	MaxQubits int
	// Solver handles first-level sub-graphs (default QAOA with paper
	// defaults). The paper's run-time decision mechanism plugs in
	// GWSolver, BestOfSolver, or any registry solver here: build one
	// from its name with solver.Build. The backend, restarts and every
	// other knob live in the solver's own options, and
	// solver.ConfigTag(Solver) is the checkpoint identity of the role.
	Solver solver.Solver
	// MergeSolver handles merge graphs on every recursion level
	// (default: same as Solver). The paper chooses the classical
	// solution for further iterations in the Fig. 4 runs.
	MergeSolver solver.Solver
	// Parallelism is the executor's worker-pool size: it bounds
	// concurrent sub-graph solves (default GOMAXPROCS), standing in for
	// the pool of simulated quantum devices / classical nodes of Fig. 2.
	// Results are bit-identical at every value.
	Parallelism int
	// Partition overrides the greedy-modularity division with an
	// explicit node grouping (each part ≤ MaxQubits, disjoint cover of
	// all nodes). The partition-method ablation and custom drivers use
	// this hook; nil selects the paper's partitioner.
	Partition [][]int
	// Seed derives the per-sub-graph deterministic random streams.
	Seed uint64
	// Runtime has no effect: every solve runs on the task-graph
	// executor (internal/runtime). Nothing in this module reads it; the
	// declaration stays only until the benchmark module stops assigning
	// it.
	Runtime bool
	// CheckpointPath persists every completed sub-graph and merge
	// solve to this file so an interrupted run resumes without
	// re-solving finished tasks.
	CheckpointPath string
	// OnRuntimeEvent, when set, streams task-completion events
	// (completed sub-solves as they land, merge levels, restores).
	// Calls are serialized.
	OnRuntimeEvent func(rt.Event)
	// Interrupt aborts a solve once closed: no new task starts and
	// Solve returns runtime.ErrInterrupted after in-flight tasks
	// finish. Completed tasks stay in the checkpoint, so a later call
	// resumes.
	Interrupt <-chan struct{}
}

func (o Options) withDefaults() Options {
	if o.MaxQubits <= 0 {
		o.MaxQubits = 16
	}
	if o.Solver == nil {
		o.Solver = solver.QAOASolver{}
	}
	if o.MergeSolver == nil {
		o.MergeSolver = o.Solver
	}
	return o
}

// Result reports a QAOA² run.
type Result = rt.Result

// Solve runs the QAOA² divide-and-conquer on g.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	return rt.Solve(g, opts.withDefaults().executor())
}

// executor maps defaulted options onto the executor's.
func (o Options) executor() rt.Options {
	ro := rt.Options{
		MaxQubits:      o.MaxQubits,
		Solver:         o.Solver,
		MergeSolver:    o.MergeSolver,
		Parallelism:    o.Parallelism,
		Partition:      o.Partition,
		Seed:           o.Seed,
		CheckpointPath: o.CheckpointPath,
		OnEvent:        o.OnRuntimeEvent,
		Interrupt:      o.Interrupt,
	}
	if o.CheckpointPath != "" {
		// The solvers' names do not tell two configurations apart, so
		// the header also carries each role's ConfigTag. Only a header
		// reads the tag, and rendering it prints both solvers' state.
		ro.ConfigTag = "solver:" + solver.ConfigTag(o.Solver) + "|merge:" + solver.ConfigTag(o.MergeSolver)
	}
	return ro
}

// SummarizeSubReports aggregates first-level sub-reports per solver for
// logs: count and total value, sorted by solver name.
func SummarizeSubReports(reports []rt.SubReport) string {
	type agg struct {
		count int
		value float64
	}
	m := make(map[string]*agg)
	for _, r := range reports {
		a := m[r.Solver]
		if a == nil {
			a = &agg{}
			m[r.Solver] = a
		}
		a.count++
		a.value += r.Value
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for i, name := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s: %d sub-graphs, Σcut %.3f", name, m[name].count, m[name].value)
	}
	return out
}
