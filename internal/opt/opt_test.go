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

func TestNelderMeadSphere(t *testing.T) {
	res := MinimizeNelderMead(sphere, []float64{2, -3, 1}, NelderMeadOptions{})
	if res.F > 1e-6 {
		t.Fatalf("NM sphere F=%v", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	res := MinimizeNelderMead(rosenbrock, []float64{-1.2, 1}, NelderMeadOptions{MaxEvals: 4000})
	if res.F > 1e-4 {
		t.Fatalf("NM rosenbrock F=%v X=%v", res.F, res.X)
	}
	for _, v := range res.X {
		if math.Abs(v-1) > 0.05 {
			t.Fatalf("NM rosenbrock X=%v", res.X)
		}
	}
}

func TestNelderMeadBudget(t *testing.T) {
	res := MinimizeNelderMead(sphere, []float64{5, 5}, NelderMeadOptions{MaxEvals: 30})
	if res.Evals > 30+2 { // shrink loop may finish its sweep
		t.Fatalf("NM evals %d", res.Evals)
	}
}

func TestNelderMeadZeroDim(t *testing.T) {
	res := MinimizeNelderMead(func(x []float64) float64 { return 7 }, nil, NelderMeadOptions{})
	if res.F != 7 {
		t.Fatalf("zero-dim %+v", res)
	}
}

func TestSPSASphere(t *testing.T) {
	res := MinimizeSPSA(sphere, []float64{1.5, -1.5}, SPSAOptions{MaxEvals: 2000, Seed: 1})
	if res.F > 0.05 {
		t.Fatalf("SPSA sphere F=%v X=%v", res.F, res.X)
	}
}

func TestSPSANoisyObjective(t *testing.T) {
	// SPSA's reason to exist: tolerate noise. Add deterministic
	// pseudo-noise and require rough convergence.
	k := 0
	noisy := func(x []float64) float64 {
		k++
		return sphere(x) + 0.01*math.Sin(float64(k)*1.7)
	}
	res := MinimizeSPSA(noisy, []float64{2, 2}, SPSAOptions{MaxEvals: 3000, Seed: 2})
	d := math.Hypot(res.X[0], res.X[1])
	if d > 0.5 {
		t.Fatalf("SPSA noisy: |x|=%v X=%v", d, res.X)
	}
}

func TestSPSADeterministicForSeed(t *testing.T) {
	a := MinimizeSPSA(sphere, []float64{1, 1}, SPSAOptions{MaxEvals: 300, Seed: 5})
	b := MinimizeSPSA(sphere, []float64{1, 1}, SPSAOptions{MaxEvals: 300, Seed: 5})
	if a.F != b.F {
		t.Fatalf("SPSA seed not reproducible: %v vs %v", a.F, b.F)
	}
}

func TestSPSABudget(t *testing.T) {
	res := MinimizeSPSA(sphere, []float64{1, 1}, SPSAOptions{MaxEvals: 21, Seed: 1})
	if res.Evals > 21 {
		t.Fatalf("SPSA evals %d", res.Evals)
	}
}

func TestAllOptimizersOnQuadraticBowl(t *testing.T) {
	// Sanity: each method reaches a far better point than the start.
	start := []float64{3, -2, 1, 0.5}
	f0 := shiftedSphere(start)
	cob := MinimizeCOBYLA(shiftedSphere, start, COBYLAOptions{MaxEvals: 1500})
	nm := MinimizeNelderMead(shiftedSphere, start, NelderMeadOptions{MaxEvals: 1500})
	sp := MinimizeSPSA(shiftedSphere, start, SPSAOptions{MaxEvals: 1500, Seed: 3})
	for name, res := range map[string]Result{"cobyla": cob, "neldermead": nm, "spsa": sp} {
		if res.F > f0/10 {
			t.Fatalf("%s barely improved: %v -> %v", name, f0, res.F)
		}
	}
}

// TestStopEndsAtTheApprovedEvaluation: each optimizer makes no call to
// the objective after the one Stop answered true for, at every position
// a stop can land (the first point, inside the first simplex, deep in
// the iteration), and a Stop that never fires leaves the run exactly as
// without one.
func TestStopEndsAtTheApprovedEvaluation(t *testing.T) {
	x0 := []float64{2, -3, 1}
	runs := map[string]func(f Objective, stop func() bool) Result{
		"cobyla": func(f Objective, stop func() bool) Result {
			return MinimizeCOBYLA(f, x0, COBYLAOptions{Rhobeg: 0.5, MaxEvals: 200, Stop: stop})
		},
		"nelder-mead": func(f Objective, stop func() bool) Result {
			return MinimizeNelderMead(f, x0, NelderMeadOptions{MaxEvals: 200, Stop: stop})
		},
		"spsa": func(f Objective, stop func() bool) Result {
			return MinimizeSPSA(f, x0, SPSAOptions{MaxEvals: 200, Seed: 3, Stop: stop})
		},
	}
	for name, run := range runs {
		free := run(sphere, nil)
		never := run(sphere, func() bool { return false })
		if fmt.Sprint(never) != fmt.Sprint(free) {
			t.Errorf("%s: a Stop that never fires changed the run: %v, want %v", name, never, free)
		}
		for _, at := range []int{1, 2, 3, 4, 5, 17, 60} {
			calls := 0
			f := func(x []float64) float64 { calls++; return sphere(x) }
			res := run(f, func() bool { return calls == at })
			if calls != at || res.Evals != at {
				t.Errorf("%s: stop at evaluation %d made %d calls, reported %d", name, at, calls, res.Evals)
			}
			if len(res.X) != len(x0) || math.IsInf(res.F, 0) {
				t.Errorf("%s: stop at %d returned %v", name, at, res)
			}
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
