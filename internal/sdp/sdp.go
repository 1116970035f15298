// Package sdp solves the MaxCut semidefinite program
//
//	maximize   ¼ ⟨L, X⟩   subject to   diag(X) = 1,  X ⪰ 0,
//
// the relaxation at the heart of the Goemans-Williamson algorithm. The
// paper solves it with cvxpy's splitting conic solver (SCS); this
// package solves it from scratch with one method and certifies the
// result:
//
//   - Solve runs the Burer-Monteiro low-rank coordinate-ascent "mixing
//     method" (Wang & Kolter), which maintains unit-norm vectors
//     v_i ∈ R^k and recovers the SDP optimum for k ≳ √(2n) in
//     O(sweeps·m·k) — from the 3-26 node leaves and merge graphs of
//     QAOA² to the 500-2500-node graphs of the paper's Fig. 4, where
//     the reference SCS build aborted beyond 2000 nodes. Its value
//     approaches the optimum from below.
//
//   - DualBound turns the mixing vectors into a dual-feasible point and
//     proves it with one dense Cholesky factorization: an upper bound
//     on the SDP optimum and on the maximum cut, for any weights. The
//     gap between it and Solve's value is how far the relaxation is
//     from its optimum. No solve path computes it.
package sdp

import (
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
	"qaoa2/internal/rng"
)

// Options configures Solve.
type Options struct {
	MaxIters int     // sweep budget (default 300)
	Tol      float64 // relative convergence tolerance (default 1e-6)
	Seed     uint64  // initialization seed
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 300
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	return o
}

// Result is a solved MaxCut SDP.
type Result struct {
	// Vectors holds the unit-norm embedding v_i as row i; GW rounding
	// consumes these directly.
	Vectors *linalg.Mat
	// Value is the SDP objective Σ_{(i,j)∈E} w_ij (1 − v_i·v_j)/2 at
	// Vectors, a feasible point: it approaches the SDP optimum from
	// below and is no bound on the maximum cut (on a tight instance it
	// sits just under it). DualBound certifies an upper bound.
	Value      float64
	Iterations int
	Converged  bool
}

// Solve solves the MaxCut SDP for g with the mixing method.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	if g.N() == 0 {
		return &Result{Vectors: linalg.NewMat(0, 1), Value: 0, Converged: true}, nil
	}
	return solveMixing(g, opts.withDefaults())
}

// VectorObjective evaluates Σ w_ij (1 − v_i·v_j)/2 for unit rows of v.
func VectorObjective(g *graph.Graph, v *linalg.Mat) float64 {
	s := 0.0
	for _, e := range g.Edges() {
		s += e.W * (1 - linalg.Dot(v.Row(e.I), v.Row(e.J))) / 2
	}
	return s
}

// solveMixing runs Burer-Monteiro coordinate ascent: each node vector is
// repeatedly set to the unit vector opposing the weighted sum of its
// neighbors, which is the exact per-coordinate maximizer of the SDP
// objective. Moving v_i from v_old to −g/‖g‖ raises the objective by
// (‖g‖ + g·v_old)/2 ≥ 0, so a sweep sums its own gain from quantities
// it already holds — no cancellation, and no second pass over the edges
// to evaluate the objective; the returned Value is evaluated once, from
// the final vectors. The vectors have k = min(⌈√(2n)⌉ + 1, n)
// coordinates.
func solveMixing(g *graph.Graph, opts Options) (*Result, error) {
	n := g.N()
	k := min(int(math.Ceil(math.Sqrt(2*float64(n))))+1, n)
	r := rng.New(opts.Seed ^ 0x5dee5dee5dee5dee)
	// The embedding and, behind it, the gradient buffer: one allocation.
	data := make([]float64, (n+1)*k)
	v := &linalg.Mat{Rows: n, Cols: k, Data: data[: n*k : n*k]}
	gvec := data[n*k:]
	for i := 0; i < n; i++ {
		row := v.Row(i)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		normalizeRow(row)
	}

	obj := VectorObjective(g, v)
	iter := 0
	converged := false
	for iter < opts.MaxIters && !converged {
		gain := 0.0
		for i := 0; i < n; i++ {
			neighbors := g.Neighbors(i)
			if len(neighbors) == 0 {
				continue
			}
			for j := range gvec {
				gvec[j] = 0
			}
			for _, h := range neighbors {
				linalg.Axpy(h.W, v.Row(h.To), gvec)
			}
			norm := linalg.Norm2(gvec)
			if norm <= 1e-300 {
				continue // gradient vanished; keep current vector
			}
			row := v.Row(i)
			gain += (norm + linalg.Dot(gvec, row)) / 2
			for j := range row {
				row[j] = -gvec[j] / norm
			}
		}
		obj += gain
		converged = gain <= opts.Tol*math.Max(1, math.Abs(obj))
		iter++
	}
	return &Result{
		Vectors:    v,
		Value:      VectorObjective(g, v),
		Iterations: iter,
		Converged:  converged,
	}, nil
}

func normalizeRow(row []float64) {
	norm := linalg.Norm2(row)
	if norm <= 1e-300 {
		row[0] = 1
		for j := 1; j < len(row); j++ {
			row[j] = 0
		}
		return
	}
	for j := range row {
		row[j] /= norm
	}
}
