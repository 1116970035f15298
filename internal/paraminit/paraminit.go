// Package paraminit implements the learned-initialization direction the
// paper sketches in §2: "with a large dataset of QAOA results, a neural
// network can be trained to predict initial parameters for subsequent
// QAOA simulations or computations on real quantum hardware", improving
// the iteration count of the hybrid loop (Amosy et al., "Iterative-free
// QAOA"). A small from-scratch MLP regresses from cheap graph features
// to the optimized (γ⃗, β⃗) of previous runs; predictions feed
// qaoa.Options.InitGammas/InitBetas as warm starts.
package paraminit

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/mlselect"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
)

// Example is one training pair: graph features → optimized parameters.
type Example struct {
	Features []float64
	Gammas   []float64
	Betas    []float64
}

// Config configures Train.
type Config struct {
	// Layers is the QAOA depth p the model predicts for (output
	// dimension 2p). Required.
	Layers int
	// Hidden is the hidden-layer width (default 16).
	Hidden int
	// Epochs are full passes over the data (default 500).
	Epochs int
	// LearnRate is the SGD step (default 0.02).
	LearnRate float64
	// Seed initializes weights and shuffling.
	Seed uint64
}

// Predictor is a trained one-hidden-layer MLP (tanh activation, linear
// output).
type Predictor struct {
	layers  int
	in      int
	hidden  int
	w1      []float64 // hidden × in
	b1      []float64 // hidden
	w2      []float64 // out × hidden
	b2      []float64 // out (= 2·layers)
	inMean  []float64 // feature standardization
	inScale []float64
}

// Train fits the predictor on examples. Every example must carry the
// same feature dimension and exactly cfg.Layers gammas and betas.
func Train(examples []Example, cfg Config) (*Predictor, error) {
	if cfg.Layers < 1 {
		return nil, fmt.Errorf("paraminit: Layers must be positive")
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("paraminit: no training examples")
	}
	in := len(examples[0].Features)
	if in == 0 {
		return nil, fmt.Errorf("paraminit: empty feature vectors")
	}
	for i, e := range examples {
		if len(e.Features) != in {
			return nil, fmt.Errorf("paraminit: example %d has %d features, want %d", i, len(e.Features), in)
		}
		if len(e.Gammas) != cfg.Layers || len(e.Betas) != cfg.Layers {
			return nil, fmt.Errorf("paraminit: example %d has %d/%d params, want %d each",
				i, len(e.Gammas), len(e.Betas), cfg.Layers)
		}
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 16
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 500
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.02
	}
	out := 2 * cfg.Layers
	r := rng.New(cfg.Seed ^ 0x9a9a9a)

	p := &Predictor{
		layers: cfg.Layers, in: in, hidden: cfg.Hidden,
		w1: make([]float64, cfg.Hidden*in), b1: make([]float64, cfg.Hidden),
		w2: make([]float64, out*cfg.Hidden), b2: make([]float64, out),
		inMean: make([]float64, in), inScale: make([]float64, in),
	}
	// Standardize features for stable SGD.
	for _, e := range examples {
		for j, v := range e.Features {
			p.inMean[j] += v
		}
	}
	for j := range p.inMean {
		p.inMean[j] /= float64(len(examples))
	}
	for _, e := range examples {
		for j, v := range e.Features {
			d := v - p.inMean[j]
			p.inScale[j] += d * d
		}
	}
	for j := range p.inScale {
		p.inScale[j] = math.Sqrt(p.inScale[j]/float64(len(examples))) + 1e-9
	}
	// Xavier-ish init.
	s1 := 1 / math.Sqrt(float64(in))
	for i := range p.w1 {
		p.w1[i] = (r.Float64()*2 - 1) * s1
	}
	s2 := 1 / math.Sqrt(float64(cfg.Hidden))
	for i := range p.w2 {
		p.w2[i] = (r.Float64()*2 - 1) * s2
	}

	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	x := make([]float64, in)
	h := make([]float64, cfg.Hidden)
	y := make([]float64, out)
	dOut := make([]float64, out)
	dHid := make([]float64, cfg.Hidden)
	target := make([]float64, out)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, ei := range idx {
			e := examples[ei]
			for j, v := range e.Features {
				x[j] = (v - p.inMean[j]) / p.inScale[j]
			}
			copy(target[:cfg.Layers], e.Gammas)
			copy(target[cfg.Layers:], e.Betas)
			p.forward(x, h, y)
			// MSE gradients.
			for o := range y {
				dOut[o] = y[o] - target[o]
			}
			for k := 0; k < cfg.Hidden; k++ {
				acc := 0.0
				for o := 0; o < out; o++ {
					acc += dOut[o] * p.w2[o*cfg.Hidden+k]
				}
				dHid[k] = acc * (1 - h[k]*h[k]) // tanh'
			}
			lr := cfg.LearnRate
			for o := 0; o < out; o++ {
				for k := 0; k < cfg.Hidden; k++ {
					p.w2[o*cfg.Hidden+k] -= lr * dOut[o] * h[k]
				}
				p.b2[o] -= lr * dOut[o]
			}
			for k := 0; k < cfg.Hidden; k++ {
				for j := 0; j < in; j++ {
					p.w1[k*in+j] -= lr * dHid[k] * x[j]
				}
				p.b1[k] -= lr * dHid[k]
			}
		}
	}
	return p, nil
}

func (p *Predictor) forward(x, h, y []float64) {
	for k := 0; k < p.hidden; k++ {
		acc := p.b1[k]
		row := p.w1[k*p.in : (k+1)*p.in]
		for j, xv := range x {
			acc += row[j] * xv
		}
		h[k] = math.Tanh(acc)
	}
	for o := range y {
		acc := p.b2[o]
		row := p.w2[o*p.hidden : (o+1)*p.hidden]
		for k, hv := range h {
			acc += row[k] * hv
		}
		y[o] = acc
	}
}

// PredictFeatures regresses parameters from a raw feature vector.
func (p *Predictor) PredictFeatures(features []float64) (gammas, betas []float64, err error) {
	if len(features) != p.in {
		return nil, nil, fmt.Errorf("paraminit: got %d features, model expects %d", len(features), p.in)
	}
	x := make([]float64, p.in)
	for j, v := range features {
		x[j] = (v - p.inMean[j]) / p.inScale[j]
	}
	h := make([]float64, p.hidden)
	y := make([]float64, 2*p.layers)
	p.forward(x, h, y)
	gammas = append([]float64(nil), y[:p.layers]...)
	betas = append([]float64(nil), y[p.layers:]...)
	return gammas, betas, nil
}

// Predict regresses warm-start parameters for a graph.
func (p *Predictor) Predict(g *graph.Graph) (gammas, betas []float64, err error) {
	return p.PredictFeatures(mlselect.Features(g))
}

// BuildDataset runs QAOA on every graph and collects (features,
// optimized parameters) pairs — the "large dataset of QAOA results" the
// paper describes accumulating on the supercomputer.
func BuildDataset(graphs []*graph.Graph, opts qaoa.Options, seed uint64) ([]Example, error) {
	var out []Example
	for i, g := range graphs {
		res, err := qaoa.Solve(g, opts, rng.New(seed).Split(uint64(i)+0xd5))
		if err != nil {
			return nil, fmt.Errorf("paraminit: dataset graph %d: %w", i, err)
		}
		if len(res.Gammas) == 0 {
			continue // edgeless instance: no parameters to learn from
		}
		out = append(out, Example{
			Features: mlselect.Features(g),
			Gammas:   res.Gammas,
			Betas:    res.Betas,
		})
	}
	return out, nil
}
