package qaoa

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

// TestRestartsNeverWorseAndDeterministic: restart 0 reproduces the
// single-start trajectory and the winner is picked by exact
// expectation, so multi-start can only match or improve the
// single-start expectation — and repeated runs must agree bit-for-bit.
func TestRestartsNeverWorseAndDeterministic(t *testing.T) {
	g := graph.ErdosRenyi(10, 0.35, graph.Unweighted, rng.New(2))
	base := Options{Layers: 2, MaxIters: 30, Seed: 5}

	single, err := Solve(g, base, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	multiOpts := base
	multiOpts.Restarts = 4
	multi, err := Solve(g, multiOpts, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Expectation < single.Expectation-1e-9 {
		t.Fatalf("multi-start expectation %v worse than single-start %v",
			multi.Expectation, single.Expectation)
	}
	if multi.Evaluations < single.Evaluations {
		t.Fatalf("multi-start reports %d evaluations, single-start %d",
			multi.Evaluations, single.Evaluations)
	}
	again, err := Solve(g, multiOpts, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if again.Expectation != multi.Expectation || again.Cut.Value != multi.Cut.Value {
		t.Fatalf("multi-start not deterministic: (%v, %v) then (%v, %v)",
			multi.Expectation, multi.Cut.Value, again.Expectation, again.Cut.Value)
	}
}

// TestRestartsFallbackBackend ranks the restarts over a backend
// without a native batch path (Dense → sequential EvaluateBatch
// fallback).
func TestRestartsFallbackBackend(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.4, graph.UniformWeights, rng.New(3))
	res, err := Solve(g, Options{
		Layers: 2, MaxIters: 20, Restarts: 3, Backend: backend.Dense{}, Seed: 9,
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Value <= 0 || math.IsNaN(res.Expectation) {
		t.Fatalf("degenerate restart result: %+v", res)
	}
}

// TestRestartsWithShots exercises the per-restart sampling streams.
func TestRestartsWithShots(t *testing.T) {
	g := graph.ErdosRenyi(9, 0.4, graph.Unweighted, rng.New(4))
	opts := Options{Layers: 2, MaxIters: 20, Restarts: 3, Shots: 256, Seed: 11}
	res, err := Solve(g, opts, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Solve(g, opts, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Expectation != again.Expectation {
		t.Fatalf("shot-sampled multi-start not deterministic: %v then %v",
			res.Expectation, again.Expectation)
	}
}

// TestNoisyRestartsRepeat: a noisy ansatz draws its trajectory noise
// from one stream, and the restarts run in turn, so that stream is
// consumed in one order: restart 0's evaluations, then restart 1's,
// and so on. Identical calls must then agree bit for bit at any core
// count (the core-count CI leg runs this at 1, 2 and 4).
func TestNoisyRestartsRepeat(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.4, graph.Unweighted, rng.New(3))
	opts := Options{
		Layers: 2, MaxIters: 20, Restarts: 3, Seed: 9,
		Backend: backend.Noisy{Model: qsim.NoiseModel{OneQubit: 0.01, TwoQubit: 0.02}},
	}
	seen := map[uint64]int{}
	for i := 0; i < 30; i++ {
		res, err := Solve(g, opts, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		seen[math.Float64bits(res.Expectation)]++
	}
	if len(seen) != 1 {
		t.Fatalf("30 identical noisy multi-start solves gave %d expectations: %#x", len(seen), seen)
	}
	t.Logf("expectation bits %#x", seen)
}

// TestRestartsAreRankedSingleStarts: multi-start is R single starts,
// ranked. Restart k is runOptimizer from its start — x0 for k = 0, a
// "Restart"-stream perturbation otherwise — sampling from its split of
// the shot stream; Solve reports the final point of highest exact
// energy, bit for bit, and the evaluations summed over the restarts.
func TestRestartsAreRankedSingleStarts(t *testing.T) {
	g := graph.ErdosRenyi(9, 0.4, graph.Unweighted, rng.New(4))
	for _, shots := range []int{0, 256} {
		for _, restarts := range []int{3, 4} {
			opts := Options{Layers: 2, MaxIters: 25, Restarts: restarts, Shots: shots, Seed: 11}.withDefaults()
			got, err := Solve(g, opts, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}

			ans, err := backend.Fused{}.Prepare(g, backend.Config{Layers: opts.Layers, Seed: opts.Seed})
			if err != nil {
				t.Fatal(err)
			}
			var table []float64
			if shots > 0 {
				table = ans.Diagonal()
			}
			gammas, betas := InitialParameters(opts.Layers)
			x0 := slices.Concat(gammas, betas)
			pr := rng.New(opts.Seed ^ 0x52657374617274)
			shotRand := rng.New(11)
			var best []float64
			bestEnergy, evals := math.Inf(-1), 0
			for k := 0; k < restarts; k++ {
				start := slices.Clone(x0)
				if k > 0 {
					for j := range start {
						start[j] += (pr.Float64() - 0.5) * 0.8
					}
				}
				res, _ := runOptimizer(ans, opts, start, shotRand.Split(uint64(k)+0x517), table, decoder{}, nil)
				evals += res.Evals
				energy, _, err := ans.Evaluate(res.X[:opts.Layers], res.X[opts.Layers:])
				if err != nil {
					t.Fatal(err)
				}
				if energy > bestEnergy {
					best, bestEnergy = res.X, energy
				}
			}

			name := fmt.Sprintf("shots=%d restarts=%d", shots, restarts)
			if !slices.Equal(slices.Concat(got.Gammas, got.Betas), best) {
				t.Errorf("%s: reported angles %v %v, want the ranked single start's %v", name, got.Gammas, got.Betas, best)
			}
			if math.Float64bits(got.Expectation) != math.Float64bits(bestEnergy) {
				t.Errorf("%s: expectation %v, want %v", name, got.Expectation, bestEnergy)
			}
			if got.Evaluations != evals {
				t.Errorf("%s: %d evaluations, want the restarts' sum %d", name, got.Evaluations, evals)
			}
		}
	}
}
