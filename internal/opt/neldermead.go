package opt

import "math"

// NelderMeadOptions configures MinimizeNelderMead.
type NelderMeadOptions struct {
	Step     float64 // initial simplex edge length (default 0.5)
	Tol      float64 // simplex f-spread tolerance (default 1e-8)
	MaxEvals int     // evaluation budget (default 200·dim)
	// Stop, when set, ends the run after any evaluation it answers true
	// for (see budget).
	Stop func() bool
}

// MinimizeNelderMead minimizes f with the standard downhill-simplex
// method (reflection 1, expansion 2, contraction ½, shrink ½).
func MinimizeNelderMead(f Objective, x0 []float64, opts NelderMeadOptions) Result {
	dim := len(x0)
	if dim == 0 {
		return Result{X: nil, F: f(nil), Evals: 1, Converged: true}
	}
	if opts.Step <= 0 {
		opts.Step = 0.5
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 200 * dim
	}

	run := &budget{f: f, max: opts.MaxEvals, stop: opts.Stop}
	eval := run.eval

	// Initial simplex: x0 and one step along each axis, cut short by a
	// stop.
	pts := make([][]float64, 0, dim+1)
	fs := make([]float64, 0, dim+1)
	for i := 0; i <= dim && !run.stopped; i++ {
		p := append([]float64(nil), x0...)
		if i > 0 {
			p[i-1] += opts.Step
		}
		pts = append(pts, p)
		fs = append(fs, eval(p))
	}

	order := func() (lo, hi, second int) {
		lo, hi = 0, 0
		for i := range fs {
			if fs[i] < fs[lo] {
				lo = i
			}
			if fs[i] > fs[hi] {
				hi = i
			}
		}
		second = lo
		for i := range fs {
			if i != hi && fs[i] > fs[second] {
				second = i
			}
		}
		return lo, hi, second
	}

	centroid := make([]float64, dim)
	trial := make([]float64, dim)
	converged := false
	for !run.done() {
		lo, hi, second := order()
		if math.Abs(fs[hi]-fs[lo]) <= opts.Tol*(math.Abs(fs[hi])+math.Abs(fs[lo])+1e-30) {
			converged = true
			break
		}
		// Centroid of all but the worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := range pts {
			if i == hi {
				continue
			}
			for j := range centroid {
				centroid[j] += pts[i][j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(dim)
		}
		// Reflect.
		for j := range trial {
			trial[j] = centroid[j] + (centroid[j] - pts[hi][j])
		}
		fr := eval(trial)
		switch {
		case fr < fs[lo]:
			// Try expansion.
			exp := make([]float64, dim)
			for j := range exp {
				exp[j] = centroid[j] + 2*(centroid[j]-pts[hi][j])
			}
			fe := eval(exp)
			if fe < fr {
				copy(pts[hi], exp)
				fs[hi] = fe
			} else {
				copy(pts[hi], trial)
				fs[hi] = fr
			}
		case fr < fs[second]:
			copy(pts[hi], trial)
			fs[hi] = fr
		default:
			// Contract toward the better of (worst, reflected).
			if fr < fs[hi] {
				copy(pts[hi], trial)
				fs[hi] = fr
			}
			for j := range trial {
				trial[j] = centroid[j] + 0.5*(pts[hi][j]-centroid[j])
			}
			fc := eval(trial)
			if fc < fs[hi] {
				copy(pts[hi], trial)
				fs[hi] = fc
			} else {
				// Shrink toward the best vertex.
				for i := range pts {
					if i == lo {
						continue
					}
					for j := range pts[i] {
						pts[i][j] = pts[lo][j] + 0.5*(pts[i][j]-pts[lo][j])
					}
					fs[i] = eval(pts[i])
					if run.done() {
						break
					}
				}
			}
		}
	}
	lo, _, _ := order()
	return Result{X: pts[lo], F: fs[lo], Evals: run.evals, Converged: converged}
}
