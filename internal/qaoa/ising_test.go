package qaoa

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/ising"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/rng"
)

// misInstance is a small weighted-MIS problem whose encoding carries
// fields (no Z2 symmetry) — the shape the MaxCut path can't express.
func misInstance(t *testing.T) *ising.Problem {
	t.Helper()
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	p, err := ising.WeightedMIS(g, []float64{2, 1, 2, 1, 2, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSolveIsingFindsGroundState(t *testing.T) {
	p := misInstance(t)
	_, wantE, err := p.H.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveIsing(p.H, Options{Layers: 4, TopK: 8, Seed: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-p.H.Energy(res.Spins)) > 1e-12 {
		t.Fatalf("reported energy %g but assignment has %g", res.Energy, p.H.Energy(res.Spins))
	}
	if res.Energy > wantE+1e-9 {
		t.Fatalf("energy %g above ground state %g", res.Energy, wantE)
	}
	a, err := p.Decode(res.Spins)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Feasible {
		t.Fatalf("decoded infeasible MIS: %v", a.Selected)
	}
	if res.Evaluations == 0 || len(res.Gammas) != 4 || res.State == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	// Expectation is E-valued: it can never beat the ground energy.
	if res.Expectation < wantE-1e-9 {
		t.Fatalf("⟨E⟩ = %g below ground energy %g", res.Expectation, wantE)
	}
}

// TestSolveIsingMatchesMaxCutSolve pins the shared variational loop:
// on an integral-weight graph the diagonal −E of ising.MaxCutProblem(g)
// equals the cut table exactly, so SolveIsing runs Solve's trajectory
// bit for bit on every fused engine and option set: spins, evaluations,
// angles, Energy = −cut and Expectation = −⟨cut⟩.
func TestSolveIsingMatchesMaxCutSolve(t *testing.T) {
	r := rng.New(9)
	graphs := []*graph.Graph{
		graph.ErdosRenyi(7, 0.6, graph.Unweighted, r),
		graph.ErdosRenyi(10, 0.4, graph.Unweighted, r),
		signedIntegral(8, 0.5, r),
	}
	variants := []Options{
		{Layers: 2, MaxIters: 30},
		{Layers: 2, MaxIters: 30, TopK: 4},
		{Layers: 2, MaxIters: 30, Shots: 256, Seed: 3},
		{Layers: 2, MaxIters: 30, DecodeShots: 128, TopK: 2, Seed: 4},
		{Layers: 2, MaxIters: 20, Restarts: 3, Seed: 5},
		{Layers: 2, MaxIters: 30, Optimizer: NelderMead},
	}
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for gi, g := range graphs {
		p, err := ising.MaxCutProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range []backend.Backend{backend.Fused{}, backend.Fused{Full: true}} {
			for vi, opts := range variants {
				opts.Backend = be
				want, err := Solve(g, opts, rng.New(7))
				if err != nil {
					t.Fatal(err)
				}
				got, err := SolveIsing(p.H, opts, rng.New(7))
				if err != nil {
					t.Fatal(err)
				}
				gotBits := fmt.Sprint(got.Spins, got.Evaluations, bits(got.Gammas...), bits(got.Betas...), bits(got.Energy, got.Expectation))
				wantBits := fmt.Sprint(want.Cut.Spins, want.Evaluations, bits(want.Gammas...), bits(want.Betas...), bits(-want.Cut.Value, -want.Expectation))
				if gotBits != wantBits {
					t.Errorf("graph %d, %s, options %d: SolveIsing differs from Solve:\n%s\n%s", gi, be.Name(), vi, gotBits, wantBits)
				}
			}
		}
	}
}

// TestSolveIsingMaxCutOutcome covers what the bit-identity pin cannot:
// real weights, where the Ising diagonal and the cut table differ in
// floating-point summation order, and the dense backend, whose gate
// walk applies the two cost layers in different orders. Either
// difference is enough to perturb a COBYLA trajectory, so the pin is on
// outcomes: both routes must reach the brute-force optimum of this
// small instance, with Energy = −cut.
func TestSolveIsingMaxCutOutcome(t *testing.T) {
	g := graph.New(7)
	r := rng.New(9)
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			if r.Float64() < 0.6 {
				g.MustAddEdge(i, j, 1+r.Float64())
			}
		}
	}
	p, err := ising.MaxCutProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := maxcut.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []backend.Backend{nil, backend.Dense{}} {
		opts := Options{Layers: 3, TopK: 8, Seed: 7, Backend: be}
		cutRes, err := Solve(g, opts, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		isingRes, err := SolveIsing(p.H, opts, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cutRes.Cut.Value-want.Value) > 1e-9 {
			t.Fatalf("%v: MaxCut route found %g, optimum %g", be, cutRes.Cut.Value, want.Value)
		}
		if math.Abs(isingRes.Energy+want.Value) > 1e-9 {
			t.Fatalf("%v: Ising route energy %g, want −optimum = %g", be, isingRes.Energy, -want.Value)
		}
		// Energy must be the exact negated cut of the decoded assignment.
		if math.Abs(isingRes.Energy+g.CutValue(isingRes.Spins)) > 1e-12 {
			t.Fatalf("%v: energy %g inconsistent with decoded cut %g", be, isingRes.Energy, g.CutValue(isingRes.Spins))
		}
	}
}

func TestSolveIsingRestartsAndShots(t *testing.T) {
	p := misInstance(t)
	res, err := SolveIsing(p.H, Options{Layers: 2, TopK: 8, Restarts: 3, Seed: 5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-p.H.Energy(res.Spins)) > 1e-12 {
		t.Fatal("restart path reports inconsistent energy")
	}
	sampled, err := SolveIsing(p.H, Options{Layers: 2, TopK: 4, Shots: 256, DecodeShots: 512, Seed: 5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sampled.Energy-p.H.Energy(sampled.Spins)) > 1e-12 {
		t.Fatal("sampled path reports inconsistent energy")
	}
}

func TestSolveIsingDenseBackendAgrees(t *testing.T) {
	p := misInstance(t)
	opts := Options{Layers: 2, TopK: 4, Seed: 3}
	fused, err := SolveIsing(p.H, opts, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = backend.Dense{}
	dense, err := SolveIsing(p.H, opts, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Identical trajectories end at identical assignments.
	if fused.Energy != dense.Energy {
		t.Fatalf("fused %g vs dense %g", fused.Energy, dense.Energy)
	}
	for i := range fused.Spins {
		if fused.Spins[i] != dense.Spins[i] {
			t.Fatal("fused and dense decode different assignments")
		}
	}
}

func TestSolveIsingValidation(t *testing.T) {
	if _, err := SolveIsing(nil, Options{}, nil); err == nil {
		t.Fatal("nil Hamiltonian accepted")
	}
	empty, err := SolveIsing(ising.New(0), Options{}, nil)
	if err != nil || empty.Energy != 0 {
		t.Fatalf("empty Hamiltonian: %v %+v", err, empty)
	}
	if _, err := SolveIsing(misInstance(t).H, Options{InitGammas: []float64{1}}, nil); err == nil {
		t.Fatal("bad init override accepted")
	}
}

// TestSolveIsingReductionAgreesWithDirect cross-checks the two routes
// end to end at the qaoa level: direct minimization vs brute force of
// the ancilla-reduced MaxCut instance.
func TestSolveIsingReductionAgreesWithDirect(t *testing.T) {
	p := misInstance(t)
	g, err := p.H.ToMaxCut()
	if err != nil {
		t.Fatal(err)
	}
	cut, err := maxcut.BruteForce(g)
	if err != nil {
		t.Fatal(err)
	}
	spins, err := p.H.DecodeMaxCutSpins(cut.Spins)
	if err != nil {
		t.Fatal(err)
	}
	_, wantE, err := p.H.GroundState()
	if err != nil {
		t.Fatal(err)
	}
	if e := p.H.Energy(spins); math.Abs(e-wantE) > 1e-12 {
		t.Fatalf("reduction optimum %g, direct ground state %g", e, wantE)
	}
}
