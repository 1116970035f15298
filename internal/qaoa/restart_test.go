package qaoa

import (
	"math"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

// TestRestartsNeverWorseAndDeterministic: restart 0 reproduces the
// single-start trajectory and the winner is picked by exact
// expectation, so multi-start can only match or improve the
// single-start expectation — and repeated runs must agree bit-for-bit
// despite the goroutine lockstep.
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

// TestRestartsFallbackBackend exercises the coordinator over a backend
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
// from one stream, so a wave's evaluations must reach it in restart
// order, not in the order the restarts' goroutines asked. Identical
// calls must then agree bit for bit at any core count (the core-count
// CI leg runs this at 1, 2 and 4).
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
