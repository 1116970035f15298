package hpc

import (
	"qaoa2/internal/mlselect"
	"qaoa2/internal/solver"
)

// DensityPolicy is the paper's run-time quantum-vs-classical decision
// ("a coordinator could inspect the sub-graphs and calculate the most
// appropriate resource allocation in advance", Fig. 2) in the naive
// form its grid search motivates (§4): QAOA for sub-graphs with small
// edge probability, the classical solver otherwise. It is the
// registry's router, an ml-adaptive solver, gated by a one-weight
// logistic model on the density feature (weight −1, bias threshold):
// the logit threshold − density is ≥ 0 exactly when density ≤
// threshold. Fig. 2 is then qaoa2.Solve with this solver, the
// executor's worker pool standing in for the worker ranks.
func DensityPolicy(threshold float64, quantum, classical solver.Solver) solver.MLAdaptiveSolver {
	return solver.MLAdaptiveSolver{
		Model:     &mlselect.Model{Weights: []float64{0, -1}, Bias: threshold},
		Quantum:   quantum,
		Classical: classical,
	}
}
