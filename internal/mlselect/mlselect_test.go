package mlselect

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

func TestFeaturesShapeAndRange(t *testing.T) {
	r := rng.New(1)
	g := graph.ErdosRenyi(20, 0.3, graph.UniformWeights, r)
	f := Features(g)
	if len(f) != FeatureCount {
		t.Fatalf("feature count %d", len(f))
	}
	for i, v := range f {
		if v < 0 || v > 100 {
			t.Fatalf("feature %d out of sane range: %v", i, v)
		}
	}
	empty := Features(graph.New(0))
	for _, v := range empty {
		if v != 0 {
			t.Fatalf("empty graph features %v", empty)
		}
	}
}

func TestFeaturesDistinguishDensity(t *testing.T) {
	sparse := graph.Path(20)
	dense := graph.Complete(20)
	fs, fd := Features(sparse), Features(dense)
	if fs[1] >= fd[1] {
		t.Fatalf("density feature: sparse %v dense %v", fs[1], fd[1])
	}
	if fs[7] >= fd[7] {
		t.Fatalf("clustering proxy: path %v complete %v", fs[7], fd[7])
	}
}

func TestClusteringProxyTriangleVsStar(t *testing.T) {
	tri := graph.Complete(3)
	star := graph.Bipartite(1, 5)
	if got := clusteringProxy(tri); got != 1 {
		t.Fatalf("triangle clustering %v", got)
	}
	if got := clusteringProxy(star); got != 0 {
		t.Fatalf("star clustering %v", got)
	}
}

// syntheticSamples builds a linearly separable dataset: label 1 when
// density below threshold (the qualitative structure of Fig. 3a).
func syntheticSamples(n int, seed uint64) []Sample {
	r := rng.New(seed)
	var out []Sample
	for i := 0; i < n; i++ {
		nodes := 10 + r.Intn(15)
		p := 0.1 + 0.5*r.Float64()
		g := graph.ErdosRenyi(nodes, p, graph.Unweighted, r)
		y := 0
		if g.Density() < 0.3 {
			y = 1
		}
		out = append(out, Sample{X: Features(g), Y: y})
	}
	return out
}

func TestTrainLearnsSeparableRule(t *testing.T) {
	train := syntheticSamples(300, 1)
	test := syntheticSamples(100, 2)
	m, err := Train(train, TrainOptions{Epochs: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, test); acc < 0.9 {
		t.Fatalf("test accuracy %v below 0.9", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := []Sample{{X: []float64{1}, Y: 2}}
	if _, err := Train(bad, TrainOptions{}); err == nil {
		t.Fatal("invalid label accepted")
	}
	mixed := []Sample{{X: []float64{1}, Y: 1}, {X: []float64{1, 2}, Y: 0}}
	if _, err := Train(mixed, TrainOptions{}); err == nil {
		t.Fatal("ragged features accepted")
	}
}

func TestPredictQAOAUsesDensitySignal(t *testing.T) {
	train := syntheticSamples(400, 5)
	m, err := Train(train, TrainOptions{Epochs: 300, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	sparse := graph.ErdosRenyi(18, 0.1, graph.Unweighted, r)
	dense := graph.ErdosRenyi(18, 0.6, graph.Unweighted, r)
	if !m.PredictQAOA(sparse) {
		t.Fatal("sparse graph not routed to QAOA")
	}
	if m.PredictQAOA(dense) {
		t.Fatal("dense graph routed to QAOA")
	}
}

// TestModelWiderThanFeaturesPanics: a model of more weights than a
// graph has features (the selector that also weighs layers and rhobeg)
// refuses to score the graph rather than drop its extra weights, while
// a model of fewer weights (hpc.DensityPolicy's two) scores their
// prefix of the features.
func TestModelWiderThanFeaturesPanics(t *testing.T) {
	g := graph.ErdosRenyi(10, 0.3, graph.Unweighted, rng.New(1))
	narrow := &Model{Weights: []float64{0, -1}, Bias: 0.5}
	if got, want := narrow.PredictQAOA(g), g.Density() <= 0.5; got != want {
		t.Fatalf("density-gate model at density %v routed QAOA=%v, want %v", g.Density(), got, want)
	}
	wide := &Model{Weights: make([]float64, FeatureCount+2)}
	msg := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		wide.PredictQAOA(g)
		return ""
	}()
	if want := fmt.Sprintf("%d weights scores %d features", FeatureCount+2, FeatureCount); !strings.Contains(msg, want) {
		t.Fatalf("a %d-weight model scored %d features (panic %q), want a panic naming both", FeatureCount+2, FeatureCount, msg)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if Accuracy(&Model{}, nil) != 0 {
		t.Fatal("empty accuracy")
	}
}

func TestTrainDeterministic(t *testing.T) {
	s := syntheticSamples(100, 9)
	a, _ := Train(s, TrainOptions{Epochs: 50, Seed: 10})
	b, _ := Train(s, TrainOptions{Epochs: 50, Seed: 10})
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("training not deterministic")
		}
	}
}

// TestDecisionOnLogitSign pins the decision rule at its boundary. A
// one-weight gate on the density feature (weight −1, bias t) scores
// z = t − density, so it must pick QAOA exactly when density ≤ t. One
// ulp of threshold below the density gives z ≈ −3e-17, where the
// sigmoid rounds to exactly 0.5: a Probability ≥ 0.5 rule would pick
// QAOA there.
func TestDecisionOnLogitSign(t *testing.T) {
	g := graph.Path(10) // density 9/45
	d := g.Density()
	for _, tc := range []struct {
		name      string
		threshold float64
		want      bool
	}{
		{"equal", d, true},
		{"ulp above", math.Nextafter(d, 1), true},
		{"ulp below", math.Nextafter(d, -1), false},
	} {
		m := &Model{Weights: []float64{0, -1}, Bias: tc.threshold}
		if got := m.PredictQAOA(g); got != tc.want {
			t.Errorf("%s: PredictQAOA = %v, want %v", tc.name, got, tc.want)
		}
		label := 0
		if tc.want {
			label = 1
		}
		if acc := Accuracy(m, []Sample{{X: Features(g), Y: label}}); acc != 1 {
			t.Errorf("%s: Accuracy = %v, want 1", tc.name, acc)
		}
	}
}
