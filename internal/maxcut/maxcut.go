// Package maxcut provides problem-level utilities shared by every
// solver in the repository: the Cut result type, an exact brute-force
// reference solver (gray-code enumeration), and the classical baselines
// used in the paper's Fig. 4 — a random partition and the NetworkX-style
// one-exchange local search — plus simulated annealing as the
// statistical-physics baseline mentioned in the related work.
package maxcut

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

// Cut is a bipartition of a graph's nodes and its cut value.
type Cut struct {
	Spins []int8  // +1 / -1 per node
	Value float64 // sum of weights of edges crossing the partition
}

// Validate re-evaluates the cut on g and reports a mismatch between the
// stored and recomputed value; used as a test/debug invariant.
func (c Cut) Validate(g *graph.Graph) error {
	if len(c.Spins) != g.N() {
		return fmt.Errorf("maxcut: cut over %d nodes, graph has %d", len(c.Spins), g.N())
	}
	for i, s := range c.Spins {
		if s != 1 && s != -1 {
			return fmt.Errorf("maxcut: spin %d has invalid value %d", i, s)
		}
	}
	if v := g.CutValue(c.Spins); math.Abs(v-c.Value) > 1e-9*math.Max(1, math.Abs(v)) {
		return fmt.Errorf("maxcut: stored value %v, recomputed %v", c.Value, v)
	}
	return nil
}

// MaxExactNodes bounds the brute-force solver; 2^(n-1) assignments are
// enumerated so 30 nodes ≈ 5·10⁸ gray-code steps, the practical ceiling.
const MaxExactNodes = 30

// BruteForce finds the exact maximum cut by enumerating all 2^(n-1)
// bipartitions (node 0 fixed by symmetry) in gray-code order so each
// step flips a single node and updates the cut incrementally in
// O(degree). It returns an error above MaxExactNodes.
func BruteForce(g *graph.Graph) (Cut, error) {
	n := g.N()
	if n > MaxExactNodes {
		return Cut{}, fmt.Errorf("maxcut: %d nodes exceeds brute-force limit %d", n, MaxExactNodes)
	}
	spins := make([]int8, n)
	for i := range spins {
		spins[i] = 1
	}
	cur := 0.0 // all same side: nothing cut
	best := Cut{Spins: append([]int8(nil), spins...), Value: cur}
	if n <= 1 {
		return best, nil
	}
	// Gray code over nodes 1..n-1.
	steps := uint64(1) << uint(n-1)
	for k := uint64(1); k < steps; k++ {
		// The bit flipped between gray(k-1) and gray(k) is trailing zeros of k.
		bit := trailingZeros(k)
		v := bit + 1 // node 0 is fixed
		// Flipping node v toggles each incident edge's cut membership.
		for _, h := range g.Neighbors(v) {
			if spins[v] != spins[h.To] {
				cur -= h.W // was cut, now not
			} else {
				cur += h.W
			}
		}
		spins[v] = -spins[v]
		if cur > best.Value {
			best.Value = cur
			copy(best.Spins, spins)
		}
	}
	return best, nil
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// RandomCut samples `trials` uniform random bipartitions and returns the
// best. With trials=1 this is the paper's random-partition baseline.
func RandomCut(g *graph.Graph, trials int, r *rng.Rand) Cut {
	if trials < 1 {
		trials = 1
	}
	n := g.N()
	best := Cut{Value: math.Inf(-1)}
	spins := make([]int8, n)
	for t := 0; t < trials; t++ {
		for i := range spins {
			if r.Bool() {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		v := g.CutValue(spins)
		if v > best.Value {
			best = Cut{Spins: append([]int8(nil), spins...), Value: v}
		}
	}
	return best
}

// OneExchange runs the single-swap local search used by
// networkx.algorithms.approximation.maxcut.one_exchange: starting from a
// random partition, repeatedly move the node with the best positive gain
// to the other side until no single move improves the cut. The result is
// a local optimum with value ≥ half the total weight on average.
func OneExchange(g *graph.Graph, r *rng.Rand) Cut {
	n := g.N()
	spins := make([]int8, n)
	for i := range spins {
		if r.Bool() {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	cur := g.CutValue(spins)
	// gain[v]: cut change if v flips = uncut incident weight − cut incident weight.
	gain := make([]float64, n)
	recompute := func(v int) {
		gv := 0.0
		for _, h := range g.Neighbors(v) {
			if spins[v] == spins[h.To] {
				gv += h.W
			} else {
				gv -= h.W
			}
		}
		gain[v] = gv
	}
	for v := 0; v < n; v++ {
		recompute(v)
	}
	for {
		bestV, bestGain := -1, 1e-12
		for v := 0; v < n; v++ {
			if gain[v] > bestGain {
				bestV, bestGain = v, gain[v]
			}
		}
		if bestV < 0 {
			break
		}
		spins[bestV] = -spins[bestV]
		cur += bestGain
		recompute(bestV)
		for _, h := range g.Neighbors(bestV) {
			recompute(h.To)
		}
	}
	return Cut{Spins: spins, Value: cur}
}

// AnnealOptions configures SimulatedAnnealing.
type AnnealOptions struct {
	Sweeps    int     // number of full sweeps over the nodes (default 200)
	TempStart float64 // initial temperature (default: max weighted degree)
	TempEnd   float64 // final temperature (default 1e-3)
}

// SimulatedAnnealing runs single-spin-flip Metropolis annealing with a
// geometric temperature schedule, the classical heuristic referenced in
// the paper's related work (Kirkpatrick et al.).
func SimulatedAnnealing(g *graph.Graph, opts AnnealOptions, r *rng.Rand) Cut {
	n := g.N()
	if n == 0 {
		return Cut{Spins: []int8{}, Value: 0}
	}
	if opts.Sweeps <= 0 {
		opts.Sweeps = 200
	}
	if opts.TempStart <= 0 {
		for v := 0; v < n; v++ {
			if d := g.WeightedDegree(v); d > opts.TempStart {
				opts.TempStart = d
			}
		}
		if opts.TempStart == 0 {
			opts.TempStart = 1
		}
	}
	if opts.TempEnd <= 0 {
		opts.TempEnd = 1e-3
	}
	spins := make([]int8, n)
	for i := range spins {
		if r.Bool() {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	cur := g.CutValue(spins)
	best := Cut{Spins: append([]int8(nil), spins...), Value: cur}
	cool := math.Pow(opts.TempEnd/opts.TempStart, 1/float64(opts.Sweeps))
	temp := opts.TempStart
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for step := 0; step < n; step++ {
			v := r.Intn(n)
			delta := 0.0
			for _, h := range g.Neighbors(v) {
				if spins[v] == spins[h.To] {
					delta += h.W
				} else {
					delta -= h.W
				}
			}
			if delta >= 0 || r.Float64() < math.Exp(delta/temp) {
				spins[v] = -spins[v]
				cur += delta
				if cur > best.Value {
					best.Value = cur
					copy(best.Spins, spins)
				}
			}
		}
		temp *= cool
	}
	return best
}
