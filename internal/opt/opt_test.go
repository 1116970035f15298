package opt

import (
	"fmt"
	"math"
	"testing"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func shiftedSphere(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		d := v - float64(i+1)
		s += d * d
	}
	return s
}

func rosenbrock(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func TestCOBYLASphere(t *testing.T) {
	res := MinimizeCOBYLA(sphere, []float64{2, -3, 1}, COBYLAOptions{Rhobeg: 0.5, MaxEvals: 2000})
	if res.F > 1e-6 {
		t.Fatalf("COBYLA sphere F=%v X=%v", res.F, res.X)
	}
	if !res.Converged {
		t.Fatal("COBYLA did not converge on sphere")
	}
}

func TestCOBYLAShiftedSphere(t *testing.T) {
	res := MinimizeCOBYLA(shiftedSphere, make([]float64, 4), COBYLAOptions{Rhobeg: 0.5, MaxEvals: 4000})
	if res.F > 1e-5 {
		t.Fatalf("COBYLA shifted sphere F=%v X=%v", res.F, res.X)
	}
	for i, v := range res.X {
		if math.Abs(v-float64(i+1)) > 0.01 {
			t.Fatalf("X[%d]=%v want %d", i, v, i+1)
		}
	}
}

func TestCOBYLARosenbrock2D(t *testing.T) {
	res := MinimizeCOBYLA(rosenbrock, []float64{-1.2, 1}, COBYLAOptions{Rhobeg: 0.5, MaxEvals: 8000, Rhoend: 1e-10})
	// Rosenbrock is hard for linear models; require entering the valley.
	if res.F > 0.5 {
		t.Fatalf("COBYLA rosenbrock F=%v X=%v", res.F, res.X)
	}
}

func TestCOBYLARespectsBudget(t *testing.T) {
	for _, budget := range []int{5, 17, 60} {
		res := MinimizeCOBYLA(sphere, []float64{3, 3, 3, 3}, COBYLAOptions{MaxEvals: budget})
		if res.Evals > budget {
			t.Fatalf("budget %d exceeded: %d evals", budget, res.Evals)
		}
	}
}

func TestCOBYLARhobegControlsFirstStep(t *testing.T) {
	// The first non-simplex candidate is exactly rho away from the best
	// simplex vertex; record evaluation points to verify.
	for _, rho := range []float64{0.1, 0.5} {
		var pts [][]float64
		f := func(x []float64) float64 {
			pts = append(pts, append([]float64(nil), x...))
			return sphere(x)
		}
		MinimizeCOBYLA(f, []float64{1, 1}, COBYLAOptions{Rhobeg: rho, MaxEvals: 4})
		// Points: x0, x0+rho·e0, x0+rho·e1, candidate.
		if len(pts) < 3 {
			t.Fatalf("rho=%v: only %d evals", rho, len(pts))
		}
		d := math.Abs(pts[1][0] - pts[0][0])
		if math.Abs(d-rho) > 1e-12 {
			t.Fatalf("rho=%v: simplex offset %v", rho, d)
		}
	}
}

func TestCOBYLAZeroDim(t *testing.T) {
	res := MinimizeCOBYLA(func(x []float64) float64 { return 42 }, nil, COBYLAOptions{})
	if res.F != 42 || !res.Converged {
		t.Fatalf("zero-dim result %+v", res)
	}
}

func TestCOBYLADeterministic(t *testing.T) {
	a := MinimizeCOBYLA(rosenbrock, []float64{0, 0}, COBYLAOptions{MaxEvals: 500})
	b := MinimizeCOBYLA(rosenbrock, []float64{0, 0}, COBYLAOptions{MaxEvals: 500})
	if a.F != b.F || a.Evals != b.Evals {
		t.Fatalf("COBYLA nondeterministic: %v/%d vs %v/%d", a.F, a.Evals, b.F, b.Evals)
	}
}

func TestAllOptimizersOnQuadraticBowl(t *testing.T) {
	// Sanity: COBYLA, the one optimizer, reaches a far better point than
	// the start.
	start := []float64{3, -2, 1, 0.5}
	f0 := shiftedSphere(start)
	if res := MinimizeCOBYLA(shiftedSphere, start, COBYLAOptions{MaxEvals: 1500}); res.F > f0/10 {
		t.Fatalf("cobyla barely improved: %v -> %v", f0, res.F)
	}
}

// TestStopEndsAtTheApprovedEvaluation: COBYLA makes no call to the
// objective after the one Stop answered true for, at every position a
// stop can land (the first point, inside the first simplex, deep in the
// iteration), and a Stop that never fires leaves the run exactly as
// without one.
func TestStopEndsAtTheApprovedEvaluation(t *testing.T) {
	x0 := []float64{2, -3, 1}
	run := func(f Objective, stop func() bool) Result {
		return MinimizeCOBYLA(f, x0, COBYLAOptions{Rhobeg: 0.5, MaxEvals: 200, Stop: stop})
	}
	free := run(sphere, nil)
	never := run(sphere, func() bool { return false })
	if fmt.Sprint(never) != fmt.Sprint(free) {
		t.Errorf("a Stop that never fires changed the run: %v, want %v", never, free)
	}
	for _, at := range []int{1, 2, 3, 4, 5, 17, 60} {
		calls := 0
		f := func(x []float64) float64 { calls++; return sphere(x) }
		res := run(f, func() bool { return calls == at })
		if calls != at || res.Evals != at {
			t.Errorf("stop at evaluation %d made %d calls, reported %d", at, calls, res.Evals)
		}
		if len(res.X) != len(x0) || math.IsInf(res.F, 0) {
			t.Errorf("stop at %d returned %v", at, res)
		}
	}
}

func BenchmarkCOBYLASphere8(b *testing.B) {
	x0 := make([]float64, 8)
	for i := range x0 {
		x0[i] = 1
	}
	for i := 0; i < b.N; i++ {
		MinimizeCOBYLA(sphere, x0, COBYLAOptions{MaxEvals: 500})
	}
}
