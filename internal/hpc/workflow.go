// Package hpc is the supercomputing substrate standing in for the
// paper's HPE-Cray EX environment: the coordinator/worker distribution
// scheme of Fig. 2 over an in-process MPI-like communicator (hpc/comm,
// the mpi4py substitute), and a discrete-event SLURM-like scheduler
// (sched.go) that models MPMD and heterogeneous jobs, exclusive
// quantum-device access and the idle-time behaviour of Fig. 1.
package hpc

import (
	"fmt"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/hpc/comm"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/partition"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
)

// Policy decides, per sub-graph, which solver runs it — the paper's
// run-time quantum-vs-classical decision mechanism ("a coordinator could
// inspect the sub-graphs and calculate the most appropriate resource
// allocation in advance", Fig. 2).
type Policy func(sub *graph.Graph) qaoa2.SubSolver

// DensityPolicy returns the naive rule the paper's grid search motivates
// (§4): QAOA for sub-graphs with small edge probability, the classical
// solver otherwise.
func DensityPolicy(threshold float64, quantum, classical qaoa2.SubSolver) Policy {
	return func(sub *graph.Graph) qaoa2.SubSolver {
		if sub.Density() <= threshold {
			return quantum
		}
		return classical
	}
}

// CoordinatedOptions configures CoordinatedSolve.
type CoordinatedOptions struct {
	// Workers is the number of worker ranks (total ranks = Workers+1;
	// rank 0 is the dedicated coordinator of Fig. 2). Default 4.
	Workers int
	// MaxQubits caps sub-graph sizes (default 16).
	MaxQubits int
	// Policy picks the solver per sub-graph (default: always Solver).
	Policy Policy
	// Solver is the fallback solver when Policy is nil (default QAOA).
	Solver qaoa2.SubSolver
	// MergeSolver solves the contracted merge graph at the coordinator
	// (default: Solver).
	MergeSolver qaoa2.SubSolver
	// Seed derives deterministic per-sub-graph randomness: results do
	// not depend on which worker handled which sub-graph.
	Seed uint64
}

// CoordinatedResult reports a coordinator-workflow run.
type CoordinatedResult struct {
	Cut       maxcut.Cut
	SubGraphs int
	Levels    int
	// Assignments records the solver name per sub-graph index.
	Assignments []string
	// WorkerBusy is wall-clock solve time per worker; the spread
	// measures load balance.
	WorkerBusy []time.Duration
	// Elapsed is the end-to-end wall time; CoordinatorOverhead is
	// Elapsed minus the critical path of worker busy time, the "minimal
	// overhead incurred by the coordination" the paper reports.
	Elapsed time.Duration
	// Comm is the message traffic between coordinator and workers.
	Comm comm.WorldStats
}

// message tags for the coordinator protocol.
const (
	tagTask = iota + 1
	tagResult
)

// task ships one sub-graph to a worker; index -1 is the stop signal.
type task struct {
	index int
	sub   *graph.Graph
}

// taskResult returns a sub-graph solution.
type taskResult struct {
	index  int
	cut    maxcut.Cut
	worker int
	busy   time.Duration
}

// CoordinatedSolve runs QAOA² as the paper's Fig. 2 workflow: a
// dedicated coordinator rank partitions the graph, streams sub-graphs to
// worker ranks on demand (first-come-first-served, so fast workers take
// more), collects the cuts, and performs the merge. Sub-graph randomness
// is derived from the sub-graph index, making the final cut independent
// of work distribution timing.
func CoordinatedSolve(g *graph.Graph, opts CoordinatedOptions) (*CoordinatedResult, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxQubits <= 0 {
		opts.MaxQubits = 16
	}
	if opts.Solver == nil {
		opts.Solver = qaoa2.QAOASolver{}
	}
	if opts.MergeSolver == nil {
		opts.MergeSolver = opts.Solver
	}
	policy := opts.Policy
	if policy == nil {
		policy = func(*graph.Graph) qaoa2.SubSolver { return opts.Solver }
	}

	parts, err := partition.SizeCapped(g, opts.MaxQubits)
	if err != nil {
		return nil, err
	}
	nParts := len(parts)

	// Pre-compute sub-graphs and solver assignments at the coordinator
	// ("inspect the sub-graphs ... in advance").
	subs := make([]*graph.Graph, nParts)
	solvers := make([]qaoa2.SubSolver, nParts)
	names := make([]string, nParts)
	for i, part := range parts {
		sub, _, err := g.InducedSubgraph(part)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
		solvers[i] = policy(sub)
		names[i] = solvers[i].Name()
	}

	world, err := comm.NewWorld(opts.Workers + 1)
	if err != nil {
		return nil, err
	}

	cuts := make([]maxcut.Cut, nParts)
	busy := make([]time.Duration, opts.Workers)
	begin := time.Now()

	world.Run(func(c *comm.Comm) {
		if c.Rank() == 0 {
			coordinator(c, subs, cuts, busy)
			return
		}
		worker(c, solvers, opts.Seed)
	})
	elapsed := time.Since(begin)

	merged, levels, err := qaoa2.MergeSubSolutions(g, parts, cuts, qaoa2.Options{
		MaxQubits:   opts.MaxQubits,
		Solver:      opts.MergeSolver,
		MergeSolver: opts.MergeSolver,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	return &CoordinatedResult{
		Cut:         merged,
		SubGraphs:   nParts,
		Levels:      levels,
		Assignments: names,
		WorkerBusy:  busy,
		Elapsed:     elapsed,
		Comm:        world.Stats(),
	}, nil
}

// coordinator streams tasks on demand and collects results.
func coordinator(c *comm.Comm, subs []*graph.Graph, cuts []maxcut.Cut, busy []time.Duration) {
	workers := c.Size() - 1
	next := 0
	// Seed every worker with one task.
	for w := 1; w <= workers && next < len(subs); w++ {
		c.Send(w, tagTask, task{index: next, sub: subs[next]}, graphBytes(subs[next]))
		next++
	}
	for done := 0; done < len(subs); done++ {
		payload, from := c.Recv(comm.AnySource, tagResult)
		res := payload.(taskResult)
		cuts[res.index] = res.cut
		busy[res.worker-1] += res.busy
		if next < len(subs) {
			c.Send(from, tagTask, task{index: next, sub: subs[next]}, graphBytes(subs[next]))
			next++
		}
	}
	// Release the workers (index -1 = stop).
	for w := 1; w <= workers; w++ {
		c.Send(w, tagTask, task{index: -1}, 0)
	}
}

// worker pulls tasks until the stop sentinel arrives. Per-task
// randomness derives from the task index so results are
// placement-independent.
func worker(c *comm.Comm, solvers []qaoa2.SubSolver, seed uint64) {
	for {
		payload, _ := c.Recv(0, tagTask)
		t := payload.(task)
		if t.index < 0 {
			return
		}
		start := time.Now()
		cut, err := solvers[t.index].SolveSub(t.sub, rng.New(seed).Split(uint64(t.index)+0x517c))
		busyFor := time.Since(start)
		if err != nil {
			// The world re-raises the panic and the caller surfaces it;
			// sub-solvers failing on supported graphs is a programming
			// error.
			panic(fmt.Sprintf("hpc: worker %d sub-graph %d: %v", c.Rank(), t.index, err))
		}
		c.Send(0, tagResult, taskResult{index: t.index, cut: cut, worker: c.Rank(), busy: busyFor}, len(cut.Spins))
	}
}

// graphBytes estimates a sub-graph's wire size for traffic accounting.
func graphBytes(g *graph.Graph) int {
	return 16 + 24*g.M()
}
