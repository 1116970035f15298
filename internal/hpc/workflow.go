package hpc

import (
	"fmt"
	"math"
	"time"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// DensityPolicy is the paper's run-time quantum-vs-classical decision
// ("a coordinator could inspect the sub-graphs and calculate the most
// appropriate resource allocation in advance", Fig. 2) in the naive
// form its grid search motivates (§4): the quantum member for
// sub-graphs with density ≤ threshold, the classical member otherwise.
// Fig. 2 is then qaoa2.Solve with this solver, the executor's worker
// pool standing in for the worker ranks.
func DensityPolicy(threshold float64, quantum, classical solver.Solver) solver.Solver {
	return densityRouter{threshold: threshold, quantum: quantum, classical: classical}
}

// densityRouter runs exactly one member per sub-graph. The decision
// consumes no randomness and the chosen member receives the
// sub-graph's rng stream unsplit, so routing changes which solver
// runs, never what that solver computes.
type densityRouter struct {
	threshold          float64
	quantum, classical solver.Solver
}

// Name implements solver.Solver.
func (d densityRouter) Name() string { return "density" }

// ConfigTag renders the threshold as float64 bits and both members'
// tags: what decides the router's cuts, and no address.
func (d densityRouter) ConfigTag() string {
	return fmt.Sprintf("density|threshold:%d|quantum:%s|classical:%s",
		math.Float64bits(d.threshold), solver.ConfigTag(d.quantum), solver.ConfigTag(d.classical))
}

// SolveSub implements solver.Solver.
func (d densityRouter) SolveSub(g *graph.Graph, r *rng.Rand) (maxcut.Cut, error) {
	cut, _, err := d.SolveSubAttributed(g, r)
	return cut, err
}

// SolveSubAttributed implements solver.Attributor: the winner is the
// routed member, resolved through solver.SolveAttributed so a nested
// composite member attributes through to its leaf winner, and the
// member's optimality certificate passes through with it.
func (d densityRouter) SolveSubAttributed(g *graph.Graph, r *rng.Rand) (maxcut.Cut, solver.Report, error) {
	chosen := d.classical
	if g.Density() <= d.threshold {
		chosen = d.quantum
	}
	start := time.Now()
	cut, rep, err := solver.SolveAttributed(chosen, g, r)
	if err != nil {
		return maxcut.Cut{}, solver.Report{}, fmt.Errorf("hpc: density router routed %s: %w", chosen.Name(), err)
	}
	return cut, solver.Report{
		Winner:   rep.Winner,
		Attempts: []solver.Attempt{{Solver: rep.Winner, Value: cut.Value, Nanos: time.Since(start).Nanoseconds()}},
		Optimal:  rep.Optimal,
	}, nil
}
