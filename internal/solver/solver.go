// Package solver is the repository's pluggable solver plane: the one
// place sub-graph MaxCut solvers are named, constructed, and observed.
// The paper's central run-time decision — solve each sub-graph with
// QAOA or with a classical method, chosen per instance (§2, §5,
// following Moussa, Calandra & Dunjko "To quantum or not to quantum")
// — needs every execution surface (library, task-graph runtime, solve
// daemon, CLIs, remote HPC dispatch) to agree on what a solver is and
// what it is called. This package provides:
//
//   - Solver, the per-sub-graph solve interface every layer takes
//     (its only other name is the facade's qaoa2.SubSolver alias);
//   - the concrete solvers: simulated QAOA, Goemans-Williamson,
//     recursive QAOA, simulated annealing, local search, brute force,
//     random baselines, and the composite best-of (the paper's "Best"
//     series);
//   - a registry (Register / Build / Names) keyed by JSON-serializable
//     Specs, so the HTTP wire format, checkpoint fingerprints, and CLI
//     flags all resolve through the identical table; and
//   - per-solver attribution (Attributor, Attempt) so composite
//     strategies report which inner solver actually won, with timing.
package solver

import (
	"fmt"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
	"qaoa2/internal/rqaoa"
	"qaoa2/internal/sdp"
)

// Solver produces a cut for one sub-graph. Implementations must be
// safe for concurrent use: sub-graphs are solved in parallel (the
// paper's Fig. 2 worker pool).
type Solver interface {
	// Name labels the solver in reports and checkpoints ("qaoa", ...).
	Name() string
	// SolveSub returns a cut of g using randomness from r only.
	SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error)
}

// ConfigTag fingerprints a solver's result-determining configuration
// for checkpoint headers: the solver's own ConfigTag when it provides
// one (solvers holding process-local state — pointers, connections —
// implement it to expose only what decides their results, so their
// checkpoints resume across processes), its printed state otherwise. Anything %#v renders unstably errs toward NOT resuming,
// never toward resuming wrongly.
func ConfigTag(s Solver) string {
	if ct, ok := s.(interface{ ConfigTag() string }); ok {
		return "tag:" + ct.ConfigTag()
	}
	return fmt.Sprintf("%#v", s)
}

// Attempt records one inner solver's try inside a composite solve —
// the per-solver attribution and timing telemetry that flows up
// through SubReports, runtime events, and the serve NDJSON stream.
type Attempt struct {
	// Solver names the inner solver.
	Solver string `json:"solver"`
	// Value is the cut value it found (meaningless when Err is set).
	Value float64 `json:"value"`
	// Nanos is the attempt's wall time. Timing is telemetry, not
	// identity: it varies run to run and is excluded from checkpoint
	// records and determinism comparisons.
	Nanos int64 `json:"nanos"`
	// Err records a failed or skipped attempt ("" on success).
	Err string `json:"err,omitempty"`
}

// SkippedOptimal is the Attempt.Err of a composite member that never
// ran because an earlier member's cut was certified optimal. Such an
// attempt has zero Value and Nanos.
const SkippedOptimal = "skipped:optimal"

// Report is the attribution of one composite solve.
type Report struct {
	// Winner names the inner solver whose cut was kept. For
	// non-composite solvers it is simply the solver's own name.
	Winner string
	// Attempts details every inner try (nil for non-composite solvers).
	Attempts []Attempt
	// Optimal certifies the returned cut as a maximum cut of the
	// sub-graph (see qaoa.Result.Optimal for what is proven and when).
	// Composites stop on it: no later member can win a strict
	// comparison against an optimum. It rides on the report, not on the
	// Solver interface, so decorators that forward a Report forward the
	// certificate with it, and a solver that cannot certify says
	// nothing.
	Optimal bool
}

// Attributor is implemented by composite solvers (best-of, and
// internal/hpc's density router) that can attribute the returned cut
// to the inner solver that actually produced it, and by plain solvers
// (qaoa, exact) that have a certificate to report with it.
type Attributor interface {
	Solver
	// SolveSubAttributed is SolveSub plus attribution. It MUST return
	// the identical cut SolveSub returns for the same (g, r).
	SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, Report, error)
}

// SolveAttributed solves g with s and always returns an attribution:
// composite solvers report their actual winner, plain solvers their
// own name. Every execution path (synchronous qaoa2 recursion,
// task-graph runtime) resolves solves through this helper so
// SubReport.Solver names the solver that really produced the cut.
func SolveAttributed(s Solver, g *graph.Graph, r *rng.Rand) (maxcut.Cut, Report, error) {
	if a, ok := s.(Attributor); ok {
		return a.SolveSubAttributed(g, r)
	}
	cut, err := s.SolveSub(g, r)
	if err != nil {
		return maxcut.Cut{}, Report{}, err
	}
	return cut, Report{Winner: s.Name()}, nil
}

// QAOASolver solves sub-graphs with simulated QAOA.
type QAOASolver struct {
	Opts qaoa.Options
}

// Name implements Solver.
func (s QAOASolver) Name() string { return "qaoa" }

// SolveSub implements Solver.
func (s QAOASolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := s.SolveSubAttributed(g, r)
	return cut, err
}

// SolveSubAttributed implements Attributor: a plain solver's report
// (its own name, no attempts) plus the optimality certificate QAOA
// reads off the cut table it already holds. A leaf needs only its cut,
// so it runs qaoa.SolveCut, which stops the optimizer once that
// certificate is earned, and releases the result's statevector as soon
// as the cut is read, for the next leaf of the same size.
func (s QAOASolver) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, Report, error) {
	res, err := qaoa.SolveCut(g, s.Opts, r)
	if err != nil {
		return maxcut.Cut{}, Report{}, err
	}
	cut, rep := res.Cut, Report{Winner: s.Name(), Optimal: res.Optimal}
	res.Release()
	return cut, rep, nil
}

// GWSolver solves sub-graphs with Goemans-Williamson, returning the best
// rounded cut (the merge step needs an assignment, not the averaged
// value the paper reports for comparisons).
type GWSolver struct {
	Opts sdp.Options
}

// Name implements Solver.
func (s GWSolver) Name() string { return "gw" }

// SolveSub implements Solver.
func (s GWSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	res, err := gw.Solve(g, s.Opts, r)
	if err != nil {
		return maxcut.Cut{}, err
	}
	return res.Best, nil
}

// RQAOASolver solves sub-graphs with recursive QAOA (Bravyi et al.),
// the non-local variant the paper cites as "leverageable using QAOA²":
// correlation-based variable elimination down to an exactly solved
// residual.
type RQAOASolver struct {
	Opts rqaoa.Options
}

// Name implements Solver.
func (s RQAOASolver) Name() string { return "rqaoa" }

// SolveSub implements Solver.
func (s RQAOASolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	res, err := rqaoa.Solve(g, s.Opts, r)
	if err != nil {
		return maxcut.Cut{}, err
	}
	return res.Cut, nil
}

// BestOfSolver runs its inner solvers sequentially and keeps the best
// cut — the paper's "Best" series, i.e. the run-time
// quantum-or-classical decision the heterogeneous SLURM allocation
// makes possible. It stops at the first member whose cut is certified
// optimal (Report.Optimal): a later member replaces the kept cut only
// on a strictly greater value, which an optimum rules out, so the
// result is the one running every member would have returned.
// Member i draws its randomness from r.Split(i+1), so the cut depends
// on the member list and the caller's stream only.
type BestOfSolver struct {
	Solvers []Solver
}

// Name implements Solver.
func (s BestOfSolver) Name() string { return "best" }

// SolveSub implements Solver.
func (s BestOfSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := s.SolveSubAttributed(g, r)
	return cut, err
}

// SolveSubAttributed implements Attributor: the winner is the inner
// solver with the strictly best value, earliest index on ties. Inner
// members resolve through SolveAttributed, so a NESTED composite
// member attributes through to the leaf solver that actually produced
// its cut (attempt labels carry the leaf name too; nested attempt
// lists are not retained — attribution is one level of attempts, all
// the way down on names). Members after a certified optimum stay in
// Attempts as SkippedOptimal entries, one per member.
func (s BestOfSolver) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, Report, error) {
	if len(s.Solvers) == 0 {
		return maxcut.Cut{}, Report{}, fmt.Errorf("solver: best-of has no inner solvers")
	}
	// Every member's stream is derived up front, in member order, into
	// one array: a skipped member's too, since each Split draws from r
	// and the caller's rng must leave in the state running every member
	// would leave it in.
	streams := make([]rng.Rand, len(s.Solvers))
	for i := range streams {
		streams[i] = *r.Split(uint64(i) + 1)
	}
	var best maxcut.Cut
	rep := Report{Attempts: make([]Attempt, 0, len(s.Solvers))}
	found := false
	for i, inner := range s.Solvers {
		if rep.Optimal {
			rep.Attempts = append(rep.Attempts, Attempt{Solver: inner.Name(), Err: SkippedOptimal})
			continue
		}
		start := time.Now()
		cut, innerRep, err := SolveAttributed(inner, g, &streams[i])
		if err != nil {
			return maxcut.Cut{}, Report{}, fmt.Errorf("solver: inner solver %s: %w", inner.Name(), err)
		}
		rep.Attempts = append(rep.Attempts, Attempt{
			Solver: innerRep.Winner, Value: cut.Value, Nanos: time.Since(start).Nanoseconds(),
		})
		if !found || cut.Value > best.Value {
			best = cut
			rep.Winner = innerRep.Winner
			found = true
		}
		// An optimal member's value is the maximum, so the kept cut —
		// this one, or an earlier one it tied — is optimal too.
		rep.Optimal = innerRep.Optimal
	}
	return best, rep, nil
}

// RandomSolver returns a uniformly random bipartition (the paper's red
// baseline uses a random partition of the full graph; as a sub-solver
// this gives the degenerate QAOA²-with-random-leaves ablation).
type RandomSolver struct {
	Trials int // best of this many draws (default 1)
}

// Name implements Solver.
func (s RandomSolver) Name() string { return "random" }

// SolveSub implements Solver.
func (s RandomSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	return maxcut.RandomCut(g, s.Trials, r), nil
}

// AnnealSolver solves sub-graphs with simulated annealing, the
// statistical-physics baseline from the paper's related work.
type AnnealSolver struct {
	Opts maxcut.AnnealOptions
}

// Name implements Solver.
func (s AnnealSolver) Name() string { return "anneal" }

// SolveSub implements Solver.
func (s AnnealSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	return maxcut.SimulatedAnnealing(g, s.Opts, r), nil
}

// ExactSolver brute-forces sub-graphs; usable only below
// maxcut.MaxExactNodes, intended for tests and small merge graphs.
type ExactSolver struct{}

// Name implements Solver.
func (ExactSolver) Name() string { return "exact" }

// SolveSub implements Solver.
func (ExactSolver) SolveSub(g *graph.Graph, _ *rng.Rand) (maxcut.Cut, error) {
	return maxcut.BruteForce(g)
}

// SolveSubAttributed implements Attributor: brute force certifies its
// own cut, under the same exact-arithmetic guard as QAOA's certificate
// so that Report.Optimal means one thing whoever issues it.
func (s ExactSolver) SolveSubAttributed(g *graph.Graph, _ *rng.Rand) (maxcut.Cut, Report, error) {
	cut, err := maxcut.BruteForce(g)
	if err != nil {
		return maxcut.Cut{}, Report{}, err
	}
	return cut, Report{Winner: s.Name(), Optimal: g.IntegralWeights()}, nil
}

// OneExchangeSolver is the NetworkX one_exchange local-search baseline.
type OneExchangeSolver struct{}

// Name implements Solver.
func (OneExchangeSolver) Name() string { return "one-exchange" }

// SolveSub implements Solver.
func (OneExchangeSolver) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	return maxcut.OneExchange(g, r), nil
}
