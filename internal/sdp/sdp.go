// Package sdp solves the MaxCut semidefinite program
//
//	maximize   ¼ ⟨L, X⟩   subject to   diag(X) = 1,  X ⪰ 0,
//
// the relaxation at the heart of the Goemans-Williamson algorithm. The
// paper solves it with cvxpy's splitting conic solver (SCS); this
// package provides two from-scratch substitutes:
//
//   - Mixing, the default at every order: the Burer-Monteiro low-rank
//     coordinate-ascent "mixing method" (Wang & Kolter), which
//     maintains unit-norm vectors v_i ∈ R^k and recovers the SDP
//     optimum for k ≳ √(2n) in O(sweeps·m·k) — from the 3-26 node
//     leaves and merge graphs of QAOA² to the 500-2500-node graphs of
//     the paper's Fig. 4, where the reference SCS build aborted beyond
//     2000 nodes.
//
//   - ADMM, the named reference: an operator-splitting method in the
//     same family as SCS, alternating a linear update on the
//     diag-constrained block with a projection onto the PSD cone
//     (Jacobi eigendecomposition), O(n³) per iteration. It is slower
//     than Mixing at every order and is kept as the SCS stand-in of
//     the scaling study and as the oracle the tests pin Mixing against.
package sdp

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/linalg"
	"qaoa2/internal/rng"
)

// Method selects the SDP solver.
type Method int

const (
	// Mixing is the Burer-Monteiro low-rank coordinate ascent solver,
	// the default (zero value).
	Mixing Method = iota
	// ADMM is the eigenprojection operator-splitting reference solver.
	ADMM
)

func (m Method) String() string {
	switch m {
	case Mixing:
		return "mixing"
	case ADMM:
		return "admm"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures Solve.
type Options struct {
	Method   Method  // zero value: Mixing
	MaxIters int     // sweep/iteration budget (default 300 mixing, 600 ADMM)
	Tol      float64 // relative convergence tolerance (default 1e-6)
	Rho      float64 // ADMM penalty parameter (default 1)
	Rank     int     // mixing rank k (default ceil(sqrt(2n))+1)
	Seed     uint64  // mixing initialization seed
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.Rho <= 0 {
		o.Rho = 1
	}
	if o.Rank <= 0 {
		o.Rank = int(math.Ceil(math.Sqrt(2*float64(n)))) + 1
	}
	if o.Rank > n && n > 0 {
		o.Rank = n
	}
	if o.Rank < 1 {
		o.Rank = 1
	}
	return o
}

// Result is a solved MaxCut SDP.
type Result struct {
	// Vectors holds the unit-norm embedding v_i as row i; GW rounding
	// consumes these directly.
	Vectors *linalg.Mat
	// Value is the SDP objective Σ_{(i,j)∈E} w_ij (1 − v_i·v_j)/2, an
	// upper bound on the maximum cut (for non-negative weights).
	Value      float64
	Iterations int
	Converged  bool
	Method     Method
}

// Solve solves the MaxCut SDP for g.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{Vectors: linalg.NewMat(0, 1), Value: 0, Converged: true, Method: opts.Method}, nil
	}
	switch opts.Method {
	case Mixing:
		return solveMixing(g, opts.withDefaults(n))
	case ADMM:
		return solveADMM(g, opts.withDefaults(n))
	default:
		return nil, fmt.Errorf("sdp: unknown method %v", opts.Method)
	}
}

// VectorObjective evaluates Σ w_ij (1 − v_i·v_j)/2 for unit rows of v.
func VectorObjective(g *graph.Graph, v *linalg.Mat) float64 {
	s := 0.0
	for _, e := range g.Edges() {
		s += e.W * (1 - linalg.Dot(v.Row(e.I), v.Row(e.J))) / 2
	}
	return s
}

// solveADMM minimizes −⟨C, X⟩ with C = L/4 over {diag(X)=1} ∩ PSD via
// the standard two-block splitting
//
//	X ← Π_{diag=1}(Z − U + C/ρ),   Z ← Π_PSD(X + U),   U ← U + X − Z.
//
// One linalg.SymEig serves every projection of the loop: the iterates
// X + U converge, so each decomposition warm-starts from the previous
// one's eigenbasis. The workspace is created here and dropped on return —
// a result never depends on what was solved before.
func solveADMM(g *graph.Graph, opts Options) (*Result, error) {
	n := g.N()
	if opts.MaxIters <= 0 {
		opts.MaxIters = 600
	}
	rho := opts.Rho
	c := g.Laplacian()
	c.Scale(1.0 / 4.0)
	c.Scale(1 / rho) // C/ρ, the only form the loop uses

	x := linalg.NewDense(n)
	z := linalg.Identity(n)
	zPrev := linalg.NewDense(n)
	u := linalg.NewDense(n)
	eig := linalg.NewSymEig(n)

	iter := 0
	converged := false
	for ; iter < opts.MaxIters; iter++ {
		// X-update: affine projection onto diag(X)=1 of Z − U + C/ρ;
		// the old Z becomes zPrev and its buffer receives X + U.
		z, zPrev = zPrev, z
		for i, zp := range zPrev.Data {
			x.Data[i] = zp - u.Data[i] + c.Data[i]
		}
		for i := 0; i < n; i++ {
			x.Set(i, i, 1)
		}
		for i, xv := range x.Data {
			z.Data[i] = xv + u.Data[i]
		}
		// Z-update: PSD projection of X + U.
		eig.ProjectPSD(z)
		// U-update (scaled dual) and residuals in one pass.
		var primal, dual, xnorm float64
		for i, xv := range x.Data {
			zv := z.Data[i]
			u.Data[i] = u.Data[i] + xv - zv
			dp, dd := xv-zv, zv-zPrev.Data[i]
			primal += dp * dp
			dual += dd * dd
			xnorm += xv * xv
		}
		primal, dual = math.Sqrt(primal), rho*math.Sqrt(dual)
		scale := math.Max(1, math.Sqrt(xnorm))
		if primal <= opts.Tol*scale && dual <= opts.Tol*scale {
			converged = true
			iter++
			break
		}
	}

	// Z is the PSD iterate; its diagonal is ≈1 at convergence, and the
	// row normalization below absorbs the residual deviation.
	vec := eig.GramFactor(z)
	normalizeRows(vec)
	return &Result{
		Vectors:    vec,
		Value:      VectorObjective(g, vec),
		Iterations: iter,
		Converged:  converged,
		Method:     ADMM,
	}, nil
}

// solveMixing runs Burer-Monteiro coordinate ascent: each node vector is
// repeatedly set to the unit vector opposing the weighted sum of its
// neighbors, which is the exact per-coordinate maximizer of the SDP
// objective. Moving v_i from v_old to −g/‖g‖ raises the objective by
// (‖g‖ + g·v_old)/2 ≥ 0, so a sweep sums its own gain from quantities
// it already holds — no cancellation, and no second pass over the edges
// to evaluate the objective; the returned Value is evaluated once, from
// the final vectors.
func solveMixing(g *graph.Graph, opts Options) (*Result, error) {
	n := g.N()
	if opts.MaxIters <= 0 {
		opts.MaxIters = 300
	}
	k := opts.Rank
	r := rng.New(opts.Seed ^ 0x5dee5dee5dee5dee)
	v := linalg.NewMat(n, k)
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
	gvec := make([]float64, k)
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
		Method:     Mixing,
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

func normalizeRows(m *linalg.Mat) {
	for i := 0; i < m.Rows; i++ {
		normalizeRow(m.Row(i))
	}
}
