// Command workflow demonstrates the paper's HPC-side results: the
// Fig. 1 heterogeneous-job idle-time reduction, the Fig. 2
// coordinator/worker distribution scheme (a worker-count sweep of the
// task-graph executor), the cache-blocking
// distributed-statevector scaling measurement — and, beyond the
// virtual-time simulator, a REAL solve through the asynchronous
// task-graph runtime with checkpoint/resume, either in-process or
// submitted to a running qaoa2d daemon.
//
// Usage:
//
//	workflow              # all experiments at default scale
//	workflow -jobs 8 -workers 1,2,4,8
//	workflow -solve-nodes 200 -checkpoint run.ckpt   # kill it, re-run: it resumes
//	workflow -submit http://127.0.0.1:8817           # remote solve via qaoa2d
//
// -submit accepts any endpoint that speaks the qaoa2d wire surface: a
// single daemon or a fleet front door (qaoa2d -front), which routes
// the job to a worker by result fingerprint and keeps the stream
// alive across worker failures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"qaoa2"
	"qaoa2/internal/experiments"
	"qaoa2/internal/retry"
	"qaoa2/internal/serve"
)

// Submission failures split into two operator-actionable classes, both
// stderr + exit 1: an unreachable daemon (network/retry problem — fix
// the endpoint or start qaoa2d) versus a job the daemon actively
// rejected or failed (request problem — fix the solver name / graph).
var (
	errDaemonUnreachable = errors.New("daemon unreachable after retries")
	errJobFailed         = errors.New("job failed remotely")
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exits and streams made testable. Usage errors
// (bad flags, malformed integer lists) report to stderr and return 2;
// operational failures return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workflow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jobs    = fs.Int("jobs", 4, "hybrid jobs in the Fig. 1 scheduling comparison")
		workers = fs.String("workers", "1,2,4", "comma-separated worker counts for the Fig. 2 sweep")
		qubits  = fs.Int("qubits", 16, "statevector size for the scaling experiment")

		solveNodes  = fs.Int("solve-nodes", 120, "graph size for the task-graph runtime solve (0 skips it)")
		solveProb   = fs.Float64("solve-p", 0.08, "edge probability for the runtime solve")
		solveQubits = fs.Int("solve-qubits", 12, "qubit budget for the runtime solve")
		solvePar    = fs.Int("solve-parallelism", 0, "runtime worker-pool size (0 = GOMAXPROCS)")
		solveSeed   = fs.Uint64("solve-seed", 3, "seed for the runtime solve")
		checkpoint  = fs.String("checkpoint", "", "checkpoint file for the runtime solve (resumes when present)")

		submit      = fs.String("submit", "", "qaoa2d or fleet front-door base URL: submit the solve remotely instead of running the experiments (e.g. http://127.0.0.1:8817)")
		solveSolver = fs.String("solve-solver", "anneal", "sub-graph solver for the runtime solve, local or remote (registry names: "+qaoa2.SolverNamesHelp()+")")
		solveMerge  = fs.String("solve-merge", "anneal", "merge solver for the runtime solve (same registry names)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "workflow: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	if *submit != "" {
		if err := submitDemo(stdout, *submit, *solveNodes, *solveProb, *solveQubits,
			*solvePar, *solveSeed, *solveSolver, *solveMerge); err != nil {
			fmt.Fprintf(stderr, "workflow: %v\n", err)
			return 1
		}
		return 0
	}

	// Validate list-valued flags before any experiment runs so usage
	// errors exit 2 without side effects.
	workerList, err := parseInts(*workers)
	if err != nil {
		fmt.Fprintf(stderr, "workflow: %v\n", err)
		return 2
	}

	fig1, err := experiments.RunFig1(*jobs)
	if err != nil {
		fmt.Fprintf(stderr, "workflow: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, experiments.RenderFig1(fig1))
	fmt.Fprintln(stdout)

	cfg := experiments.DefaultFig2Config()
	cfg.Workers = workerList
	points, err := experiments.RunFig2(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "workflow: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, experiments.RenderFig2(points))
	fmt.Fprintln(stdout)

	scaling, err := experiments.RunEngineScaling(*qubits, 2, 7)
	if err != nil {
		fmt.Fprintf(stderr, "workflow: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, experiments.RenderEngineScaling(scaling))

	if *solveNodes > 0 {
		fmt.Fprintln(stdout)
		if err := runtimeDemo(stdout, *solveNodes, *solveProb, *solveQubits,
			*solvePar, *solveSeed, *checkpoint, *solveSolver, *solveMerge); err != nil {
			fmt.Fprintf(stderr, "workflow: %v\n", err)
			return 1
		}
	}
	return 0
}

// submitDemo runs the runtime solve remotely: it submits the same
// generated instance to a qaoa2d daemon through the serve client —
// retrying transient failures and reconnecting through stream drops —
// and streams the job's NDJSON progress events. Failures come back
// wrapped as errDaemonUnreachable or errJobFailed so the exit path
// tells the operator which side to fix.
func submitDemo(w io.Writer, base string, nodes int, p float64, maxQubits, parallelism int,
	seed uint64, solver, merge string) error {
	g := qaoa2.ErdosRenyi(nodes, p, qaoa2.Unweighted, qaoa2.NewRand(seed))
	fmt.Fprintf(w, "remote solve of %v via %s (cap %d qubits, solver %s, merge %s)\n",
		g, base, maxQubits, solver, merge)

	client := &qaoa2.ServeClient{Base: base, Retry: retry.Default(seed)}
	req := qaoa2.SolveRequest{
		Graph:       qaoa2.GraphSpecOf(g),
		MaxQubits:   maxQubits,
		Solver:      solver,
		Merge:       merge,
		Seed:        seed,
		Parallelism: parallelism,
	}
	st, err := client.Solve(context.Background(), req, func(ev qaoa2.ServeEvent) {
		printEvent(w, ev.Event)
	})
	if err != nil {
		if errors.Is(err, retry.ErrExhausted) || retry.Classify(err) == retry.Retryable {
			return fmt.Errorf("%w: %w", errDaemonUnreachable, err)
		}
		// The daemon answered and said no (bad request, unknown solver),
		// or its answer was unusable (a done status without a result).
		return fmt.Errorf("%w: %w", errJobFailed, err)
	}
	switch st.State {
	case serve.JobDone:
		fmt.Fprintf(w, "job %s done: cut %.2f over %d levels, %d first-level sub-graphs (%d events, %d restored)\n",
			st.ID, st.Result.Value, st.Result.Levels, st.Result.SubGraphs, st.Events, st.Restores)
	case serve.JobFailed:
		return fmt.Errorf("%w: job %s: %s", errJobFailed, st.ID, st.Error)
	default:
		fmt.Fprintf(w, "job %s parked (%s): the daemon drained; restart it to resume\n", st.ID, st.State)
	}
	return nil
}

// runtimeDemo runs one QAOA² solve on the task-graph executor (the real
// counterpart of the simulated schedule above), streaming completed
// tasks and reporting checkpoint restores. Solver
// names resolve through the shared registry, so the local demo and the
// remote submission accept the identical name set.
func runtimeDemo(w io.Writer, nodes int, p float64, maxQubits, parallelism int,
	seed uint64, checkpoint, solverName, mergeName string) error {
	g := qaoa2.ErdosRenyi(nodes, p, qaoa2.Unweighted, qaoa2.NewRand(seed))
	fmt.Fprintf(w, "task-graph runtime solve on %v (cap %d qubits, solver %s, merge %s",
		g, maxQubits, solverName, mergeName)
	if checkpoint != "" {
		fmt.Fprintf(w, ", checkpoint %s", checkpoint)
	}
	fmt.Fprintln(w, ")")

	sub, err := qaoa2.BuildSolver(qaoa2.SolverSpec{Name: solverName, Seed: seed})
	if err != nil {
		return err
	}
	merge, err := qaoa2.BuildSolver(qaoa2.SolverSpec{Name: mergeName, Seed: seed})
	if err != nil {
		return err
	}
	solves, restores := 0, 0
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:      maxQubits,
		Parallelism:    parallelism,
		Solver:         sub,
		MergeSolver:    merge,
		Seed:           seed,
		CheckpointPath: checkpoint,
		OnRuntimeEvent: func(ev qaoa2.RuntimeEvent) {
			if !printEvent(w, ev) {
				return
			}
			if ev.Restored {
				restores++
			} else {
				solves++
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cut %.2f over %d levels, %d first-level sub-graphs (%s)\n",
		res.Cut.Value, res.Levels, res.SubGraphs, qaoa2.SummarizeSubReports(res.SubReports))
	fmt.Fprintf(w, "%d tasks solved, %d restored from checkpoint\n", solves, restores)
	return nil
}

// printEvent prints one completed task of a local or remote solve: a
// sub-solve or merge-solve with its cut, marked when restored from a
// checkpoint, or a partition with its size. It reports whether the
// task was a solve.
func printEvent(w io.Writer, ev qaoa2.RuntimeEvent) (solve bool) {
	switch ev.Kind {
	case "sub-solve", "merge-solve":
		mark := ""
		if ev.Restored {
			mark = " (restored from checkpoint)"
		}
		fmt.Fprintf(w, "  %-12s %-10s %3d nodes  cut %8.2f%s\n",
			ev.Task, ev.Kind, ev.Nodes, ev.Value, mark)
		return true
	case "partition":
		fmt.Fprintf(w, "  %-12s %-10s %3d nodes %4d edges\n",
			ev.Task, ev.Kind, ev.Nodes, ev.Edges)
	}
	return false
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}
