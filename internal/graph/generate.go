package graph

import (
	"fmt"
	"math"

	"qaoa2/internal/rng"
)

// Weighting selects the edge-weight distribution of generated graphs,
// mirroring the paper's two graph families: uniform (all weights 1) and
// weighted (weights drawn uniformly from [0, 1]).
type Weighting int

const (
	// Unweighted assigns weight 1 to every edge.
	Unweighted Weighting = iota
	// UniformWeights draws each weight uniformly from [0, 1).
	UniformWeights
)

func (w Weighting) String() string {
	switch w {
	case Unweighted:
		return "unweighted"
	case UniformWeights:
		return "weighted"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// ErdosRenyi samples G(n, p): every unordered node pair is an edge
// independently with probability p, with weights drawn per the
// weighting. This reproduces networkx.gnp_random_graph, the generator
// used for every experiment in the paper. The pairs {i, j}, i < j,
// take one draw each in lexicographic order, and a pair is an edge
// when its draw's Float64() < p; under UniformWeights an edge takes one
// more draw, its weight. A row's pairs are one rng.Rand.NextBelow run.
// It panics if p is NaN or outside [0, 1], or if n < 0.
func ErdosRenyi(n int, p float64, w Weighting, r *rng.Rand) *Graph {
	below := threshold(p)
	edges := make([]Edge, 0, expectedEdges(p*float64(n)*float64(n-1)/2))
	for i := 0; i < n; i++ {
		edges = appendRun(edges, i, i+1, n, below, w, r)
	}
	return generated(n, edges)
}

// threshold is ⌈p·2⁵³⌉: a draw's Float64() is below p exactly when its
// top 53 bits are below it (rng.Rand.NextBelow). It panics unless p is
// a probability, NaN included, which would otherwise compare false
// against every draw.
func threshold(p float64) uint64 {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("graph: edge probability %v outside [0,1]", p))
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// expectedEdges is a capacity for a sample whose mean edge count is
// mean: four standard deviations above it (a binomial's variance is at
// most its mean), so the edge list is allocated once and kept with
// little slack.
func expectedEdges(mean float64) int {
	return int(mean + 4*math.Sqrt(mean) + 16)
}

// appendRun appends to edges, in pair order, the edges {i, j} for j in
// [lo, hi) that a run of draws with threshold below samples, a weight
// drawn after each under UniformWeights.
func appendRun(edges []Edge, i, lo, hi int, below uint64, w Weighting, r *rng.Rand) []Edge {
	for j := lo; j < hi; {
		draws, hit := r.NextBelow(hi-j, below)
		if !hit {
			break
		}
		j += draws
		weight := 1.0
		if w == UniformWeights {
			weight = r.Float64()
		}
		edges = append(edges, Edge{I: i, J: j - 1, W: weight})
	}
	return edges
}

// generated is the graph on n nodes with the given edges, listed in
// pair order with I < J, each pair once: the graph an AddEdge per edge
// builds, its adjacency cut from one array at its exact length.
func generated(n int, edges []Edge) *Graph {
	checkNodes(n)
	return fromEdges(n, edges, absSum(edges), make([]int, n))
}

// Complete returns K_n with unit weights.
func Complete(n int) *Graph {
	edges := make([]Edge, 0, max(n*(n-1)/2, 0))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{I: i, J: j, W: 1})
		}
	}
	return generated(n, edges)
}

// Cycle returns the n-cycle with unit weights (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs at least 3 nodes")
	}
	edges := make([]Edge, n)
	for i := 0; i+1 < n; i++ {
		edges[i] = Edge{I: i, J: i + 1, W: 1}
	}
	edges[n-1] = Edge{I: 0, J: n - 1, W: 1}
	return generated(n, edges)
}

// Path returns the path graph on n nodes with unit weights.
func Path(n int) *Graph {
	edges := make([]Edge, max(n-1, 0))
	for i := range edges {
		edges[i] = Edge{I: i, J: i + 1, W: 1}
	}
	return generated(n, edges)
}

// Bipartite returns the complete bipartite graph K_{a,b} with unit
// weights; its MaxCut equals a*b (cut all edges).
func Bipartite(a, b int) *Graph {
	edges := make([]Edge, 0, max(a, 0)*max(b, 0))
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, Edge{I: i, J: a + j, W: 1})
		}
	}
	return generated(a+b, edges)
}

// PlantedCommunities generates a graph of k communities of the given
// size with intra-community edge probability pIn and inter-community
// probability pOut. Used to exercise the greedy-modularity partitioner
// on instances with known structure. Pairs take their draws as in
// ErdosRenyi, each row's pairs in two runs: those inside i's community,
// then those past it. It panics if either probability is NaN or
// outside [0, 1], or if k or size is negative.
func PlantedCommunities(k, size int, pIn, pOut float64, w Weighting, r *rng.Rand) (*Graph, []int) {
	belowIn, belowOut := threshold(pIn), threshold(pOut)
	if k < 0 || size < 0 {
		panic(fmt.Sprintf("graph: %d communities of %d nodes", k, size))
	}
	n := k * size
	membership := make([]int, n)
	for v := range membership {
		membership[v] = v / size
	}
	inside := float64(k) * float64(size) * float64(size-1) / 2
	edges := make([]Edge, 0, expectedEdges(pIn*inside+pOut*(float64(n)*float64(n-1)/2-inside)))
	for i := 0; i < n; i++ {
		end := (membership[i] + 1) * size
		edges = appendRun(edges, i, i+1, end, belowIn, w, r)
		edges = appendRun(edges, i, end, n, belowOut, w, r)
	}
	return generated(n, edges), membership
}

// Regular3 generates a random (approximately) 3-regular graph via the
// pairing model with retry, a standard QAOA benchmark family.
func Regular3(n int, r *rng.Rand) *Graph {
	if n%2 == 1 || n < 4 {
		panic("graph: 3-regular graph needs even n >= 4")
	}
	for attempt := 0; attempt < 100; attempt++ {
		g, ok := tryPairing(n, 3, r)
		if ok {
			return g
		}
	}
	panic("graph: failed to sample a simple 3-regular graph")
}

func tryPairing(n, d int, r *rng.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := New(n)
	for i := 0; i < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b {
			return nil, false
		}
		if _, exists := g.Weight(a, b); exists {
			return nil, false
		}
		g.MustAddEdge(a, b, 1)
	}
	return g, true
}
