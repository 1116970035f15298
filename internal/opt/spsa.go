package opt

import (
	"math"

	"qaoa2/internal/rng"
)

// SPSAOptions configures MinimizeSPSA.
type SPSAOptions struct {
	A        float64 // step-size numerator (default 0.2)
	C        float64 // perturbation size (default 0.1)
	Alpha    float64 // step decay exponent (default 0.602)
	Gamma    float64 // perturbation decay exponent (default 0.101)
	MaxEvals int     // evaluation budget, 2 per iteration (default 200)
	Seed     uint64
	// Stop, when set, ends the run after any evaluation it answers true
	// for (see budget).
	Stop func() bool
}

// MinimizeSPSA minimizes f by simultaneous-perturbation stochastic
// approximation: two evaluations per iteration estimate a descent
// direction regardless of dimension, which suits noisy shot-based QAOA
// objectives.
func MinimizeSPSA(f Objective, x0 []float64, opts SPSAOptions) Result {
	dim := len(x0)
	if dim == 0 {
		return Result{X: nil, F: f(nil), Evals: 1, Converged: true}
	}
	if opts.A <= 0 {
		opts.A = 0.2
	}
	if opts.C <= 0 {
		opts.C = 0.1
	}
	if opts.Alpha <= 0 {
		opts.Alpha = 0.602
	}
	if opts.Gamma <= 0 {
		opts.Gamma = 0.101
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 200
	}
	r := rng.New(opts.Seed ^ 0x5b5a5958)

	x := append([]float64(nil), x0...)
	bestX := append([]float64(nil), x...)
	run := &budget{f: f, max: opts.MaxEvals, stop: opts.Stop}
	eval := run.eval
	bestF := eval(x)

	plus := make([]float64, dim)
	minus := make([]float64, dim)
	delta := make([]float64, dim)
	stability := float64(opts.MaxEvals) / 20
	for k := 0; !run.stopped && run.evals+2 <= opts.MaxEvals; k++ {
		ak := opts.A / math.Pow(float64(k)+1+stability, opts.Alpha)
		ck := opts.C / math.Pow(float64(k)+1, opts.Gamma)
		for i := range delta {
			if r.Bool() {
				delta[i] = 1
			} else {
				delta[i] = -1
			}
			plus[i] = x[i] + ck*delta[i]
			minus[i] = x[i] - ck*delta[i]
		}
		fp := eval(plus)
		fm := eval(minus)
		gScale := (fp - fm) / (2 * ck)
		for i := range x {
			x[i] -= ak * gScale / delta[i]
		}
		if fp < bestF {
			bestF = fp
			copy(bestX, plus)
		}
		if fm < bestF {
			bestF = fm
			copy(bestX, minus)
		}
	}
	// Final check at the converged iterate.
	if !run.done() {
		if fx := eval(x); fx < bestF {
			bestF = fx
			copy(bestX, x)
		}
	}
	return Result{X: bestX, F: bestF, Evals: run.evals, Converged: true}
}
