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
// resolves Options (defaults, registry specs, the checkpoint config
// tag) and hands the solve to internal/runtime, the one implementation
// of partition → sub-solve → merge → stitch. No goroutine starts here.
package qaoa2

import (
	"fmt"
	"sort"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qaoa"
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
	// GWSolver, BestOfSolver, or any registry solver here.
	Solver solver.Solver
	// MergeSolver handles merge graphs on every recursion level
	// (default: same as Solver). The paper chooses the classical
	// solution for further iterations in the Fig. 4 runs.
	MergeSolver solver.Solver
	// SolverSpec names a registry solver (internal/solver) to build
	// when Solver is nil — the declarative, JSON-serializable route the
	// serve daemon and CLIs use. Its canonical form is folded into
	// checkpoint fingerprints, so a resumed run re-binds to the
	// identical solver configuration. Ignored when Solver is set.
	SolverSpec solver.Spec
	// MergeSpec is SolverSpec's counterpart for MergeSolver.
	MergeSpec solver.Spec
	// Backend selects the circuit-execution backend of the DEFAULT QAOA
	// sub- and merge solvers (nil = backend.Default, the fused path).
	// It is ignored when an explicit Solver/MergeSolver is provided —
	// set the backend inside that solver's own options instead (e.g.
	// solver.QAOASolver{Opts: qaoa.Options{Backend: ...}}).
	Backend backend.Backend
	// Restarts forwards qaoa.Options.Restarts to the DEFAULT QAOA sub-
	// and merge solvers: every sub-graph solve runs this many batched
	// multi-start optimizations (default 1). Like Backend, it is
	// ignored when an explicit Solver/MergeSolver is provided.
	//
	// Concurrency compounds: each of up to Parallelism concurrent
	// sub-solves fans out min(Restarts, GOMAXPROCS) batch workers (each
	// pinning a 2^MaxQubits statevector buffer for the sub-solve's
	// lifetime), so with Restarts > 1 consider lowering Parallelism to
	// keep total workers near the core count.
	Restarts int
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

func (o Options) withDefaults() (Options, error) {
	if o.MaxQubits <= 0 {
		o.MaxQubits = 16
	}
	// A spec only describes the solver it built: when an explicit
	// Solver overrides it, drop the spec so checkpoint fingerprints
	// derive from the solver actually running.
	if o.Solver != nil {
		o.SolverSpec = solver.Spec{}
	} else if o.SolverSpec.Name != "" {
		s, err := solver.Build(o.SolverSpec)
		if err != nil {
			return o, fmt.Errorf("qaoa2: %w", err)
		}
		o.Solver = s
	}
	if o.MergeSolver != nil {
		o.MergeSpec = solver.Spec{}
	} else if o.MergeSpec.Name != "" {
		s, err := solver.Build(o.MergeSpec)
		if err != nil {
			return o, fmt.Errorf("qaoa2: merge: %w", err)
		}
		o.MergeSolver = s
	}
	if o.Solver == nil {
		o.Solver = solver.QAOASolver{Opts: qaoa.Options{Backend: o.Backend, Restarts: o.Restarts}}
	}
	if o.MergeSolver == nil {
		o.MergeSolver = o.Solver
		o.MergeSpec = o.SolverSpec
	}
	return o, nil
}

// Result reports a QAOA² run.
type Result = rt.Result

// Solve runs the QAOA² divide-and-conquer on g.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	return rt.Solve(g, opts.executor())
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
		// Only a checkpoint header reads the tag, and rendering it
		// prints both solvers' full state.
		ro.ConfigTag = configTag(o)
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
