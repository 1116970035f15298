// Package gw implements the Goemans-Williamson approximation algorithm
// for MaxCut: solve the SDP relaxation, then round the vector solution
// with random hyperplanes. Expected cut ≥ 0.878·OPT.
//
// Matching the paper (§3.4), the default applies the hyperplane slicing
// 30 times and reports the AVERAGE cut value — that average is the "GW
// value" against which QAOA is compared in Figs. 3-4 and Table 1 — while
// also retaining the best rounded cut for downstream use (the QAOA²
// merge consumes an actual assignment, not an average).
package gw

import (
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
	"qaoa2/internal/sdp"
)

// DefaultRounds is the paper's slicing count.
const DefaultRounds = 30

// Options configures Solve.
type Options struct {
	Rounds int         // hyperplane slicings (default 30)
	SDP    sdp.Options // relaxation solver configuration
}

// Result is the outcome of a GW run.
type Result struct {
	Average float64    // mean cut over all roundings (paper's GW value)
	Best    maxcut.Cut // best rounded cut
	// SDPValue is the relaxation objective at the embedding that was
	// rounded (sdp.Result.Value): it approaches the SDP optimum from
	// below and bounds nothing; sdp.DualBound certifies a bound.
	SDPValue float64
	Rounds   int
	SDPIters int
	// Converged is false when the relaxation stopped at its iteration
	// cap instead of its convergence test; the rounding is still valid.
	Converged bool
}

// Solve runs Goemans-Williamson on g using randomness from r.
func Solve(g *graph.Graph, opts Options, r *rng.Rand) (*Result, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = DefaultRounds
	}
	rel, err := sdp.Solve(g, opts.SDP)
	if err != nil {
		return nil, err
	}
	n := g.N()
	res := &Result{
		SDPValue:  rel.Value,
		Rounds:    opts.Rounds,
		SDPIters:  rel.Iterations,
		Converged: rel.Converged,
	}
	if n == 0 {
		res.Best = maxcut.Cut{Spins: []int8{}, Value: 0}
		return res, nil
	}

	k := rel.Vectors.Cols
	normal := make([]float64, k)
	spins := make([]int8, n)
	sum := 0.0
	best := maxcut.Cut{Spins: make([]int8, n), Value: math.Inf(-1)}
	for round := 0; round < opts.Rounds; round++ {
		for j := range normal {
			normal[j] = r.NormFloat64()
		}
		Round(rel.Vectors, normal, spins)
		v := g.CutValue(spins)
		sum += v
		if v > best.Value {
			best.Value = v
			copy(best.Spins, spins)
		}
	}
	res.Average = sum / float64(opts.Rounds)
	res.Best = best
	return res, nil
}

// Round assigns spins by the sign of each embedding vector's projection
// onto the hyperplane normal (ties broken toward +1). Exposed so tests
// and the experiments harness can perform deterministic roundings.
func Round(vectors *linalg.Mat, normal []float64, spins []int8) {
	for i := 0; i < vectors.Rows; i++ {
		if linalg.Dot(vectors.Row(i), normal) >= 0 {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
}
