// Package gw implements the Goemans-Williamson approximation algorithm
// for MaxCut: solve the SDP relaxation, then round the vector solution
// with random hyperplanes. Expected cut ≥ 0.878·OPT.
//
// Matching the paper (§3.4), Solve applies the hyperplane slicing
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

// Rounds is the paper's slicing count.
const Rounds = 30

// Result is the outcome of a GW run.
type Result struct {
	Average float64    // mean cut over all roundings (paper's GW value)
	Best    maxcut.Cut // best rounded cut
	// Relaxation is the solved SDP whose Vectors were rounded; hand it
	// to sdp.DualBound for a certified upper bound.
	Relaxation *sdp.Result
}

// Solve runs Goemans-Williamson on g: one relaxation under opts, then
// Rounds roundings with hyperplane normals drawn from r.
func Solve(g *graph.Graph, opts sdp.Options, r *rng.Rand) (*Result, error) {
	rel, err := sdp.Solve(g, opts)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if n == 0 {
		return &Result{Best: maxcut.Cut{Spins: []int8{}}, Relaxation: rel}, nil
	}

	// A leaf's normal has a handful of coordinates and stays on the
	// stack; only a large graph's is allocated.
	k := rel.Vectors.Cols
	var small [32]float64
	normal := small[:min(k, len(small))]
	if k > len(small) {
		normal = make([]float64, k)
	}
	// The kept best spins and, behind them, the scratch: one allocation.
	buf := make([]int8, 2*n)
	spins := buf[n:]
	sum := 0.0
	best := maxcut.Cut{Spins: buf[:n:n], Value: math.Inf(-1)}
	for round := 0; round < Rounds; round++ {
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
	return &Result{Average: sum / Rounds, Best: best, Relaxation: rel}, nil
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
