// Package mlselect implements the machine-learning method-selection
// direction the paper discusses (§2, §5, following Moussa, Calandra &
// Dunjko "To quantum or not to quantum"): a logistic-regression
// classifier over cheap graph features predicts whether QAOA or GW will
// produce the better MaxCut on a given (sub-)graph, so a workflow
// coordinator can allocate quantum or classical resources in advance.
// The training data is exactly the grid-search knowledge base the
// paper's Fig. 3 builds.
package mlselect

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

// FeatureCount is the dimension of the feature vector (plus bias).
const FeatureCount = 8

// Features extracts the classifier inputs from a graph: size, density,
// degree statistics and weight statistics — all O(n+m), cheap enough for
// a coordinator to evaluate before dispatching (Fig. 2).
func Features(g *graph.Graph) []float64 {
	n := g.N()
	f := make([]float64, FeatureCount)
	if n == 0 {
		return f
	}
	f[0] = float64(n) / 50.0 // node count, scaled to O(1)
	f[1] = g.Density()
	// Degree statistics.
	mean := 0.0
	maxDeg := 0.0
	for v := 0; v < n; v++ {
		d := float64(g.Degree(v))
		mean += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean /= float64(n)
	variance := 0.0
	for v := 0; v < n; v++ {
		d := float64(g.Degree(v)) - mean
		variance += d * d
	}
	variance /= float64(n)
	f[2] = mean / 10.0
	f[3] = math.Sqrt(variance) / 10.0
	f[4] = maxDeg / 20.0
	// Weight statistics.
	if g.M() > 0 {
		wMean := g.TotalWeight() / float64(g.M())
		wVar := 0.0
		for _, e := range g.Edges() {
			d := e.W - wMean
			wVar += d * d
		}
		wVar /= float64(g.M())
		f[5] = wMean
		f[6] = math.Sqrt(wVar)
	}
	// Triangle-ish local density proxy: mean neighbor-degree ratio.
	f[7] = clusteringProxy(g)
	return f
}

// clusteringProxy estimates local clustering on a weighted graph by
// sampling closed wedges exactly for small graphs (n ≤ 64) and returning
// edge density otherwise (the classifier only needs a monotone signal).
func clusteringProxy(g *graph.Graph) float64 {
	n := g.N()
	if n > 64 {
		return g.Density()
	}
	wedges, closed := 0, 0
	for v := 0; v < n; v++ {
		nb := g.Neighbors(v)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				wedges++
				if _, ok := g.Weight(nb[i].To, nb[j].To); ok {
					closed++
				}
			}
		}
	}
	if wedges == 0 {
		return 0
	}
	return float64(closed) / float64(wedges)
}

// Sample is one labeled training instance.
type Sample struct {
	X []float64 // features
	Y int       // 1: QAOA won, 0: GW won
}

// Model is a trained logistic-regression selector.
type Model struct {
	Weights []float64 // FeatureCount weights
	Bias    float64
}

// TrainOptions configures Train.
type TrainOptions struct {
	Epochs int    // full passes over the data (default 400)
	Seed   uint64 // shuffling
}

// learnRate is Train's constant SGD step.
const learnRate = 0.1

// Train fits the model with mini-batch-free SGD over shuffled samples,
// at the constant step learnRate and without a ridge term.
func Train(samples []Sample, opts TrainOptions) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("mlselect: no training samples")
	}
	dim := len(samples[0].X)
	for i, s := range samples {
		if len(s.X) != dim {
			return nil, fmt.Errorf("mlselect: sample %d has %d features, want %d", i, len(s.X), dim)
		}
		if s.Y != 0 && s.Y != 1 {
			return nil, fmt.Errorf("mlselect: sample %d label %d not in {0,1}", i, s.Y)
		}
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 400
	}
	r := rng.New(opts.Seed ^ 0x109dc)
	m := &Model{Weights: make([]float64, dim)}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, si := range idx {
			s := samples[si]
			p := m.Probability(s.X)
			grad := p - float64(s.Y)
			for j, x := range s.X {
				m.Weights[j] -= learnRate * (grad * x)
			}
			m.Bias -= learnRate * grad
		}
	}
	return m, nil
}

// logit returns the model's log-odds z = bias + w·x. The weights may
// cover a prefix of x (hpc.DensityPolicy weighs two features). A model
// with more weights than x has features was trained on another
// feature vector, and logit panics rather than score x with part of
// it.
func (m *Model) logit(x []float64) float64 {
	if len(m.Weights) > len(x) {
		panic(fmt.Sprintf("mlselect: model of %d weights scores %d features", len(m.Weights), len(x)))
	}
	z := m.Bias
	for j, w := range m.Weights {
		z += w * x[j]
	}
	return z
}

// Probability returns P(QAOA wins | features).
func (m *Model) Probability(x []float64) float64 {
	return 1 / (1 + math.Exp(-m.logit(x)))
}

// PredictQAOA reports whether the model recommends QAOA for the graph,
// scored on its Features; it panics for a model of more weights.
// It decides on the sign of the logit, not on Probability ≥ 0.5: for z
// just below 0 the sigmoid rounds to exactly 0.5, which would route a
// graph the model scores negative to QAOA.
func (m *Model) PredictQAOA(g *graph.Graph) bool {
	return m.logit(Features(g)) >= 0
}

// Accuracy evaluates the model on labeled samples.
func Accuracy(m *Model, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		pred := 0
		if m.logit(s.X) >= 0 {
			pred = 1
		}
		if pred == s.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
