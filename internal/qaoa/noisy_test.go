package qaoa

import (
	"math"
	"testing"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
	"qaoa2/internal/synth"
)

func TestNoisyExpectationZeroNoiseMatchesExact(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.5, graph.UniformWeights, rng.New(1))
	gammas := []float64{0.4, 0.6}
	betas := []float64{0.5, 0.2}
	noisy, err := NoisyExpectation(g, gammas, betas, qsim.NoiseModel{}, 4, synth.Preferences{}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Reference: run the clean pipeline at the same parameters.
	tpl, err := synth.BuildTemplate(synth.Model{Graph: g, Layers: 2}, synth.Preferences{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.Bind(gammas, betas); err != nil {
		t.Fatal(err)
	}
	s, _ := qsim.NewState(8)
	tpl.Circuit.Apply(s)
	want := s.ExpectDiagonal(backend.CutTable(g, nil))
	if math.Abs(noisy-want) > 1e-10 {
		t.Fatalf("zero-noise expectation %v want %v", noisy, want)
	}
}

func TestNoisyExpectationDegradesTowardMixed(t *testing.T) {
	// Depolarizing noise pulls ⟨H_C⟩ toward TotalWeight/2 (fully mixed).
	g := graph.Bipartite(4, 4) // optimum 16, mixed value 8
	gammas, betas := InitialParameters(3)
	clean, err := NoisyExpectation(g, gammas, betas, qsim.NoiseModel{}, 1, synth.Preferences{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	strong, err := NoisyExpectation(g, gammas, betas,
		qsim.NoiseModel{OneQubit: 0.5, TwoQubit: 0.5}, 24, synth.Preferences{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	mixed := g.TotalWeight() / 2
	if math.Abs(strong-mixed) >= math.Abs(clean-mixed) {
		t.Fatalf("strong noise (%v) not closer to mixed value %v than clean (%v)", strong, mixed, clean)
	}
	if math.Abs(strong-mixed) > 2.0 {
		t.Fatalf("strong noise expectation %v far from mixed value %v", strong, mixed)
	}
}

func TestNoisyExpectationMonotoneDegradation(t *testing.T) {
	// More noise must not help a state tuned to a good cut.
	g := graph.Cycle(8)
	res, err := Solve(g, Options{Layers: 3, MaxIters: 100, Seed: 5}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, p := range []float64{0, 0.05, 0.3} {
		v, err := NoisyExpectation(g, res.Gammas, res.Betas,
			qsim.NoiseModel{OneQubit: p, TwoQubit: p}, 32, synth.Preferences{}, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		// Allow small trajectory-sampling slack.
		if v > prev+0.3 {
			t.Fatalf("noise level %v improved expectation: %v after %v", p, v, prev)
		}
		prev = v
	}
}

func TestNoisyExpectationValidation(t *testing.T) {
	g := graph.Complete(3)
	if _, err := NoisyExpectation(g, []float64{1}, []float64{1, 2}, qsim.NoiseModel{}, 1, synth.Preferences{}, rng.New(1)); err == nil {
		t.Fatal("ragged params accepted")
	}
	if _, err := NoisyExpectation(g, []float64{1}, []float64{1}, qsim.NoiseModel{OneQubit: 7}, 1, synth.Preferences{}, rng.New(1)); err == nil {
		t.Fatal("invalid model accepted")
	}
	v, err := NoisyExpectation(graph.New(4), []float64{1}, []float64{1}, qsim.NoiseModel{}, 1, synth.Preferences{}, rng.New(1))
	if err != nil || v != 0 {
		t.Fatalf("edgeless graph: %v err=%v", v, err)
	}
}
