// Package opt provides the classical optimizer driving the QAOA
// variational loop: a from-scratch COBYLA (the paper's optimizer, whose
// rhobeg parameter is swept in the Fig. 3 grid search).
//
// COBYLA MINIMIZES; the QAOA layer negates its expectation.
package opt

import (
	"math"

	"qaoa2/internal/linalg"
)

// Objective is a function to minimize.
type Objective func(x []float64) float64

// Result reports an optimization run.
type Result struct {
	X         []float64 // best point found
	F         float64   // objective at X
	Evals     int       // objective evaluations consumed
	Converged bool      // trust region shrank below Rhoend
}

// COBYLAOptions configures MinimizeCOBYLA.
type COBYLAOptions struct {
	// Rhobeg is the initial trust-region radius — "a reasonable initial
	// change to the variables" (Powell). This is the parameter the paper
	// sweeps over {0.1 ... 0.5}.
	Rhobeg float64
	// Rhoend is the final radius; reaching it means convergence
	// (default 1e-6).
	Rhoend float64
	// MaxEvals bounds objective evaluations (default 100·dim).
	MaxEvals int
	// Stop, when set, ends the run after any evaluation it answers true
	// for (see budget).
	Stop func() bool
}

// budget counts objective evaluations against a cap and a caller's stop
// predicate. Stop is asked after every evaluation; once it answers true
// the run makes no further call to the objective: eval returns +Inf,
// which every COBYLA step rejects, so the run falls through to its
// Result with the best point it kept.
type budget struct {
	f       Objective
	max     int
	stop    func() bool
	evals   int
	stopped bool
}

func (b *budget) eval(x []float64) float64 {
	if b.stopped {
		return math.Inf(1)
	}
	b.evals++
	v := b.f(x)
	b.stopped = b.stop != nil && b.stop()
	return v
}

// done reports whether the run must end: its budget is spent or it was
// stopped.
func (b *budget) done() bool { return b.stopped || b.evals >= b.max }

// MinimizeCOBYLA minimizes f starting from x0 using a linear-
// approximation trust-region method in the spirit of Powell's COBYLA
// (constraints omitted: QAOA parameters are unconstrained). A simplex of
// dim+1 points supports a linear interpolation model; the model's
// steepest-descent step of length rho is tried, and when it stops
// producing improvement the radius shrinks toward Rhoend, refining the
// simplex around the incumbent.
func MinimizeCOBYLA(f Objective, x0 []float64, opts COBYLAOptions) Result {
	dim := len(x0)
	if dim == 0 {
		return Result{X: nil, F: f(nil), Evals: 1, Converged: true}
	}
	if opts.Rhobeg <= 0 {
		opts.Rhobeg = 0.5
	}
	if opts.Rhoend <= 0 || opts.Rhoend > opts.Rhobeg {
		opts.Rhoend = 1e-6
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 100 * dim
	}

	run := &budget{f: f, max: opts.MaxEvals, stop: opts.Stop}
	eval := run.eval

	type vertex struct {
		x []float64
		f float64
	}
	rho := opts.Rhobeg

	// buildSimplex centers a fresh coordinate simplex of radius rho at x.
	buildSimplex := func(center []float64, fc float64) []vertex {
		simplex := make([]vertex, 0, dim+1)
		simplex = append(simplex, vertex{x: append([]float64(nil), center...), f: fc})
		for i := 0; i < dim && !run.done(); i++ {
			xi := append([]float64(nil), center...)
			xi[i] += rho
			simplex = append(simplex, vertex{x: xi, f: eval(xi)})
		}
		return simplex
	}

	fBest := eval(x0)
	simplex := buildSimplex(x0, fBest)

	bestIdx := func(s []vertex) int {
		b := 0
		for i := range s {
			if s[i].f < s[b].f {
				b = i
			}
		}
		return b
	}
	worstIdx := func(s []vertex) int {
		w := 0
		for i := range s {
			if s[i].f > s[w].f {
				w = i
			}
		}
		return w
	}

	converged := false
	for !run.done() {
		if len(simplex) < dim+1 {
			// Budget ran out mid-build; finish with what we have.
			break
		}
		b := bestIdx(simplex)
		// Fit the linear model f(x) ≈ f(x_b) + g·(x − x_b) through all
		// vertices: rows are (x_i − x_b), rhs f_i − f_b.
		a := linalg.NewMat(dim, dim)
		rhs := make([]float64, dim)
		row := 0
		for i := range simplex {
			if i == b {
				continue
			}
			for j := 0; j < dim; j++ {
				a.Set(row, j, simplex[i].x[j]-simplex[b].x[j])
			}
			rhs[row] = simplex[i].f - simplex[b].f
			row++
		}
		g, ok := linalg.SolveLinear(a, rhs)
		gNorm := 0.0
		if ok {
			gNorm = linalg.Norm2(g)
		}
		if !ok || gNorm < 1e-14 {
			// Degenerate simplex or flat model: shrink and rebuild.
			rho *= 0.5
			if rho < opts.Rhoend {
				converged = true
				break
			}
			simplex = buildSimplex(simplex[b].x, simplex[b].f)
			continue
		}
		// Trust-region step: steepest descent of length rho.
		cand := append([]float64(nil), simplex[b].x...)
		linalg.Axpy(-rho/gNorm, g, cand)
		fc := eval(cand)
		if fc < simplex[b].f-1e-12*math.Max(1, math.Abs(simplex[b].f)) {
			// Success: replace the worst vertex.
			w := worstIdx(simplex)
			simplex[w] = vertex{x: cand, f: fc}
			continue
		}
		// The model step failed: the linear approximation is stale at
		// this radius. Shrink and recenter.
		rho *= 0.5
		if rho < opts.Rhoend {
			converged = true
			break
		}
		simplex = buildSimplex(simplex[b].x, simplex[b].f)
	}

	b := bestIdx(simplex)
	return Result{
		X:         simplex[b].x,
		F:         simplex[b].f,
		Evals:     run.evals,
		Converged: converged,
	}
}
