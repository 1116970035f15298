package paraminit

import (
	"math"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
)

// syntheticExamples builds a learnable smooth mapping feature→params.
func syntheticExamples(n int, layers int, seed uint64) []Example {
	r := rng.New(seed)
	var out []Example
	for i := 0; i < n; i++ {
		f := []float64{r.Float64(), r.Float64(), r.Float64()}
		gammas := make([]float64, layers)
		betas := make([]float64, layers)
		for l := 0; l < layers; l++ {
			gammas[l] = 0.5*f[0] + 0.2*float64(l)
			betas[l] = 0.4*f[1] - 0.1*f[2]
		}
		out = append(out, Example{Features: f, Gammas: gammas, Betas: betas})
	}
	return out
}

func TestTrainLearnsSyntheticMapping(t *testing.T) {
	train := syntheticExamples(300, 2, 1)
	test := syntheticExamples(80, 2, 2)
	p, err := Train(train, Config{Layers: 2, Epochs: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Mean squared parameter error over the held-out examples.
	total := 0.0
	for _, e := range test {
		gs, bs, err := p.PredictFeatures(e.Features)
		if err != nil {
			t.Fatal(err)
		}
		for l := range gs {
			total += (gs[l]-e.Gammas[l])*(gs[l]-e.Gammas[l]) + (bs[l]-e.Betas[l])*(bs[l]-e.Betas[l])
		}
	}
	if mse := total / float64(2*2*len(test)); mse > 0.003 {
		t.Fatalf("held-out MSE %v too high", mse)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, Config{Layers: 1}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := Train(syntheticExamples(5, 2, 1), Config{Layers: 0}); err == nil {
		t.Fatal("zero layers accepted")
	}
	bad := syntheticExamples(5, 2, 1)
	bad[3].Gammas = bad[3].Gammas[:1]
	if _, err := Train(bad, Config{Layers: 2}); err == nil {
		t.Fatal("ragged params accepted")
	}
	ragged := syntheticExamples(5, 2, 1)
	ragged[2].Features = []float64{1}
	if _, err := Train(ragged, Config{Layers: 2}); err == nil {
		t.Fatal("ragged features accepted")
	}
}

func TestPredictShapes(t *testing.T) {
	p, err := Train(syntheticExamples(50, 3, 4), Config{Layers: 3, Epochs: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gs, bs, err := p.PredictFeatures([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 || len(bs) != 3 {
		t.Fatalf("shapes %d/%d", len(gs), len(bs))
	}
	if _, _, err := p.PredictFeatures([]float64{1}); err == nil {
		t.Fatal("wrong feature length accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	data := syntheticExamples(60, 2, 6)
	a, _ := Train(data, Config{Layers: 2, Epochs: 50, Seed: 7})
	b, _ := Train(data, Config{Layers: 2, Epochs: 50, Seed: 7})
	ga, _, _ := a.PredictFeatures(data[0].Features)
	gb, _, _ := b.PredictFeatures(data[0].Features)
	for l := range ga {
		if ga[l] != gb[l] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestEndToEndWarmStart(t *testing.T) {
	// Build a dataset from real QAOA runs, train the predictor, and use
	// its output as a warm start on a fresh instance; the warm-started
	// run must reach at least the cold-started expectation under the
	// SAME reduced iteration budget (the paper's claimed benefit:
	// fewer iterations).
	r := rng.New(8)
	var train []*graph.Graph
	for i := 0; i < 10; i++ {
		train = append(train, graph.ErdosRenyi(8, 0.4, graph.Unweighted, r))
	}
	opts := qaoa.Options{Layers: 2, MaxIters: 60}
	data, err := BuildDataset(train, opts, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 10 {
		t.Fatalf("dataset size %d", len(data))
	}
	pred, err := Train(data, Config{Layers: 2, Epochs: 300, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}

	fresh := graph.ErdosRenyi(8, 0.4, graph.Unweighted, r)
	gs, bs, err := pred.Predict(fresh)
	if err != nil {
		t.Fatal(err)
	}
	budget := 14 // tight: too few iterations for a cold start to converge
	cold, err := qaoa.Solve(fresh, qaoa.Options{Layers: 2, MaxIters: budget, Seed: 11}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := qaoa.Solve(fresh, qaoa.Options{
		Layers: 2, MaxIters: budget, Seed: 11,
		InitGammas: gs, InitBetas: bs,
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Warm starts should not be substantially worse; typically better.
	if warm.Expectation < cold.Expectation-0.5 {
		t.Fatalf("warm start much worse: %v vs cold %v", warm.Expectation, cold.Expectation)
	}
	if math.IsNaN(warm.Expectation) {
		t.Fatal("NaN expectation")
	}
}

func TestBuildDatasetSkipsEdgeless(t *testing.T) {
	graphs := []*graph.Graph{graph.New(4), graph.Complete(3)}
	data, err := BuildDataset(graphs, qaoa.Options{Layers: 2, MaxIters: 20}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 {
		t.Fatalf("dataset %d want 1 (edgeless skipped)", len(data))
	}
}
