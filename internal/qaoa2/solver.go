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
	"qaoa2/internal/solver"
)

// SubSolver produces a cut for one sub-graph. It IS the solver plane's
// interface (internal/solver): every solver in the registry plugs in
// here. Implementations must be safe for concurrent use: sub-graphs
// are solved in parallel (Fig. 2's worker pool).
type SubSolver = solver.Solver

// The concrete solvers live in internal/solver (the registry); these
// aliases keep the historical qaoa2-level names working.
type (
	// QAOASolver solves sub-graphs with simulated QAOA.
	QAOASolver = solver.QAOASolver
	// GWSolver solves sub-graphs with Goemans-Williamson.
	GWSolver = solver.GWSolver
	// SDPGWSolver is GW with the SDP relaxation method pinned.
	SDPGWSolver = solver.SDPGWSolver
	// RQAOASolver solves sub-graphs with recursive QAOA.
	RQAOASolver = solver.RQAOASolver
	// BestOfSolver runs inner solvers in turn and keeps the best cut,
	// stopping at a certified optimum.
	BestOfSolver = solver.BestOfSolver
	// PortfolioSolver races inner solvers under a shared deadline.
	PortfolioSolver = solver.PortfolioSolver
	// MLAdaptiveSolver gates QAOA-vs-classical per sub-graph with the
	// mlselect feature classifier.
	MLAdaptiveSolver = solver.MLAdaptiveSolver
	// RandomSolver returns a uniformly random bipartition.
	RandomSolver = solver.RandomSolver
	// AnnealSolver solves sub-graphs with simulated annealing.
	AnnealSolver = solver.AnnealSolver
	// ExactSolver brute-forces sub-graphs.
	ExactSolver = solver.ExactSolver
	// OneExchangeSolver is the 1-swap local-search baseline.
	OneExchangeSolver = solver.OneExchangeSolver
)
