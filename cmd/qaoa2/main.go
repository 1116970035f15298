// Command qaoa2 solves a MaxCut instance with the QAOA² divide-and-
// conquer method, choosing sub-graph solvers the way the paper's hybrid
// workflow does (quantum, classical, or the best of both), and prints
// the decomposition and the resulting cut.
//
// Solver names resolve through the solver registry (internal/solver),
// the same table the qaoa2d daemon accepts over HTTP.
//
// Usage:
//
//	qaoa2 -nodes 300 -prob 0.1 -solver best -maxqubits 12
//	qaoa2 -in instance.txt -solver gw
//	qaoa2 -nodes 200 -solver qaoa -backend dense    # reference gate walk
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	root "qaoa2"
	"qaoa2/internal/graph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exits and streams made testable. Usage errors
// (bad flags, unknown solver/backend names) report to stderr and
// return 2; operational failures (unreadable instance, failed solve)
// return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qaoa2", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes     = fs.Int("nodes", 120, "node count for generated Erdős–Rényi instances")
		prob      = fs.Float64("prob", 0.1, "edge probability for generated instances")
		weighted  = fs.Bool("weighted", false, "draw edge weights uniformly from [0,1)")
		inFile    = fs.String("in", "", "read the instance from a file instead of generating (format: 'n m' header, 'i j w' lines)")
		maxQubits = fs.Int("maxqubits", 16, "qubit budget: maximum sub-graph size")
		backendN  = fs.String("backend", "", "QAOA circuit-execution backend: "+root.BackendNamesHelp()+" (default: fused)")
		solverN   = fs.String("solver", "best", "sub-graph solver: "+root.SolverNamesHelp())
		merge     = fs.String("merge", "gw", "merge-graph solver (same registry names)")
		layers    = fs.Int("layers", 3, "QAOA ansatz layers p")
		iters     = fs.Int("iters", 0, "optimizer iteration budget (0 = paper's p-dependent default)")
		rhobeg    = fs.Float64("rhobeg", 0.5, "COBYLA initial trust radius")
		shots     = fs.Int("shots", 0, "QAOA objective shots (0 = exact expectation, 4096 = paper)")
		seed      = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "qaoa2: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	// The backend reaches the solvers through their specs below; check
	// it here too, so a bad name is a usage error even for solvers that
	// run no circuit (gw, anneal, ...).
	if _, err := root.BackendByName(*backendN); err != nil {
		fmt.Fprintf(stderr, "qaoa2: %v\n", err)
		return 2
	}

	// Both roles resolve through the one solver registry — the same
	// table the serve daemon's wire format uses, so every name works
	// identically from the CLI and from POST /v1/solve. Building here
	// (once) keeps the exit-code contract: an unknown name is a usage
	// error (2), not an operational failure (1).
	spec := func(name string) root.SolverSpec {
		return root.SolverSpec{
			Name: name, Layers: *layers, MaxIters: *iters, Rhobeg: *rhobeg,
			Shots: *shots, Backend: *backendN, Seed: *seed,
		}
	}
	sub, err := root.BuildSolver(spec(*solverN))
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2: %v\n", err)
		return 2
	}
	mrg, err := root.BuildSolver(spec(*merge))
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2: %v\n", err)
		return 2
	}

	g, err := loadGraph(*inFile, *nodes, *prob, *weighted, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2: %v\n", err)
		return 1
	}

	res, err := root.Solve(g, root.Options{
		MaxQubits:   *maxQubits,
		Solver:      sub,
		MergeSolver: mrg,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintf(stderr, "qaoa2: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "instance:   %v\n", g)
	fmt.Fprintf(stdout, "solver:     %s (merge: %s), qubit budget %d\n", sub.Name(), mrg.Name(), *maxQubits)
	fmt.Fprintf(stdout, "sub-graphs: %d over %d merge level(s)\n", res.SubGraphs, res.Levels)
	fmt.Fprintf(stdout, "            %s\n", root.SummarizeSubReports(res.SubReports))
	fmt.Fprintf(stdout, "cut value:  %.6f (intra %.6f + cross %.6f)\n", res.Cut.Value, res.IntraCut, res.CrossCut)
	return 0
}

func loadGraph(inFile string, nodes int, prob float64, weighted bool, seed uint64) (*root.Graph, error) {
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.Read(f)
	}
	w := root.Unweighted
	if weighted {
		w = root.UniformWeights
	}
	return root.ErdosRenyi(nodes, prob, w, root.NewRand(seed)), nil
}
