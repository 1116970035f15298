// Package graph implements the weighted undirected graphs at the heart
// of the MaxCut problem: construction, Erdős–Rényi generation (the
// paper's workload), cut evaluation, induced subgraphs for the QAOA²
// dividing step and signed contraction for its merging step.
//
// Nodes are dense integers 0..N-1. Parallel edges are merged by summing
// weights; self-loops are rejected (they never contribute to a cut).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"qaoa2/internal/linalg"
)

// Edge is an undirected weighted edge with I < J.
type Edge struct {
	I, J int
	W    float64
}

// Graph is a weighted undirected graph over nodes 0..N-1.
type Graph struct {
	n     int
	edges []Edge
	// adj[i] lists (neighbor, edge index) pairs for fast traversal.
	adj [][]Half
	// abs is Σ|w| over edges, summed in edge order. Rounding is
	// monotone, so it bounds every sum of a subset of the weights taken
	// in edge order — every cut value, every partial sum — and a copy
	// that lists the same edges. Every graph keeps it finite
	// (absRefusal).
	abs float64
}

// Half is one endpoint's view of an edge.
type Half struct {
	To   int     // neighbor node
	W    float64 // edge weight
	Edge int     // index into Edges()
}

// New creates an empty graph with n nodes. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]Half, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the adjacency list of node i. Callers must not
// mutate it.
func (g *Graph) Neighbors(i int) []Half { return g.adj[i] }

// Degree returns the number of edges incident to node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// WeightedDegree returns the sum of weights of edges incident to i.
func (g *Graph) WeightedDegree(i int) float64 {
	s := 0.0
	for _, h := range g.adj[i] {
		s += h.W
	}
	return s
}

// AddEdge inserts an undirected edge {i, j} with weight w. Adding an
// edge that already exists accumulates the weight onto the existing
// edge; such a merge sums the absolute weights afresh, in O(M). Self-
// loops, out-of-range endpoints, a NaN or infinite weight and a weight
// that takes the graph's absolute weights past float64's range (which a
// merged weight that overflows does) are errors, and leave g unchanged.
func (g *Graph) AddEdge(i, j int, w float64) error {
	if i == j {
		return fmt.Errorf("graph: self-loop on node %d", i)
	}
	if i < 0 || i >= g.n || j < 0 || j >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", i, j, g.n)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: edge {%d,%d} has weight %v, which is not finite", i, j, w)
	}
	if i > j {
		i, j = j, i
	}
	idx := len(g.edges)
	for _, h := range g.adj[i] {
		if h.To == j {
			idx = h.Edge
		}
	}
	abs := g.abs + math.Abs(w)
	if idx < len(g.edges) {
		// A merge changes a term inside the sum.
		abs = 0
		for k, e := range g.edges {
			if k == idx {
				e.W += w
			}
			abs += math.Abs(e.W)
		}
	}
	if r := absRefusal(abs); r != "" {
		return fmt.Errorf("graph: edge {%d,%d} of weight %v: %s", i, j, w, r)
	}
	g.abs = abs
	if idx < len(g.edges) {
		g.edges[idx].W += w
		g.refreshHalf(idx)
		return nil
	}
	g.edges = append(g.edges, Edge{I: i, J: j, W: w})
	g.adj[i] = append(g.adj[i], Half{To: j, W: w, Edge: idx})
	g.adj[j] = append(g.adj[j], Half{To: i, W: w, Edge: idx})
	return nil
}

// absRefusal is why a graph whose absolute weights sum to abs is
// refused, "" when it is not: every cut value lies within ±Σ|w|, so past
// float64's range neither cut values nor cost phases are numbers. A sum
// is nondecreasing as it grows, so a finite total has finite prefixes.
func absRefusal(abs float64) string {
	if abs <= math.MaxFloat64 {
		return ""
	}
	return fmt.Sprintf("the absolute edge weights sum to %v; cut values must be finite", abs)
}

// absSum returns Σ|w| over edges, in their order.
func absSum(edges []Edge) float64 {
	abs := 0.0
	for _, e := range edges {
		abs += math.Abs(e.W)
	}
	return abs
}

// MustAddEdge is AddEdge that panics on error; for tests and literals.
func (g *Graph) MustAddEdge(i, j int, w float64) {
	if err := g.AddEdge(i, j, w); err != nil {
		panic(err)
	}
}

// refreshHalf re-synchronizes the cached weights in both adjacency
// entries of edge idx after a weight merge.
func (g *Graph) refreshHalf(idx int) {
	e := g.edges[idx]
	for k, h := range g.adj[e.I] {
		if h.Edge == idx {
			g.adj[e.I][k].W = e.W
		}
	}
	for k, h := range g.adj[e.J] {
		if h.Edge == idx {
			g.adj[e.J][k].W = e.W
		}
	}
}

// Weight returns the weight of edge {i,j} and whether it exists.
func (g *Graph) Weight(i, j int) (float64, bool) {
	if i < 0 || i >= g.n || j < 0 || j >= g.n || i == j {
		return 0, false
	}
	for _, h := range g.adj[i] {
		if h.To == j {
			return h.W, true
		}
	}
	return 0, false
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	s := 0.0
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// IntegralWeights reports whether every edge weight is an integer and
// the absolute weights sum to less than 2^53. Every partial sum of edge
// weights is then an integer float64 represents exactly, so a cut value
// is the same float in whatever order it is summed, and two cut values
// computed by different code compare with == as the integers they are.
// Optimality certificates (qaoa.Result.Optimal) are issued only under
// this guard.
func (g *Graph) IntegralWeights() bool {
	sum := 0.0
	for _, e := range g.edges {
		if e.W != math.Trunc(e.W) { // an overflowing sum fails below
			return false
		}
		sum += math.Abs(e.W)
	}
	return sum < 1<<53
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return fromEdges(g.n, slices.Clone(g.edges), g.abs)
}

// CutValue evaluates the cut induced by the spin assignment
// (spins[i] ∈ {+1, -1}): the sum of weights of edges whose endpoints
// carry opposite spins. This is exactly the problem Hamiltonian
// H_C = ½ Σ w_ij (1 − Z_i Z_j) evaluated on a computational basis state.
func (g *Graph) CutValue(spins []int8) float64 {
	if len(spins) != g.n {
		panic(fmt.Sprintf("graph: assignment length %d != n %d", len(spins), g.n))
	}
	cut := 0.0
	for _, e := range g.edges {
		if spins[e.I] != spins[e.J] {
			cut += e.W
		}
	}
	return cut
}

// CutValueBits is CutValue for a 0/1 assignment.
func (g *Graph) CutValueBits(bits []uint8) float64 {
	if len(bits) != g.n {
		panic(fmt.Sprintf("graph: assignment length %d != n %d", len(bits), g.n))
	}
	cut := 0.0
	for _, e := range g.edges {
		if bits[e.I] != bits[e.J] {
			cut += e.W
		}
	}
	return cut
}

// SpinsFromBits converts a 0/1 assignment to ±1 spins (0 → +1, 1 → −1),
// matching the computational-basis convention Z|0⟩=+|0⟩, Z|1⟩=−|1⟩.
func SpinsFromBits(bits []uint8) []int8 {
	s := make([]int8, len(bits))
	for i, b := range bits {
		if b == 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// BitsFromSpins is the inverse of SpinsFromBits.
func BitsFromSpins(spins []int8) []uint8 {
	b := make([]uint8, len(spins))
	for i, s := range spins {
		if s < 0 {
			b[i] = 1
		}
	}
	return b
}

// Laplacian returns the graph Laplacian L = D − A as a dense matrix.
// The MaxCut SDP objective is ¼⟨L, X⟩.
func (g *Graph) Laplacian() *linalg.Mat {
	l := linalg.NewMat(g.n, g.n)
	for _, e := range g.edges {
		l.Add(e.I, e.I, e.W)
		l.Add(e.J, e.J, e.W)
		l.Add(e.I, e.J, -e.W)
		l.Add(e.J, e.I, -e.W)
	}
	return l
}

// fromEdges builds the graph on n nodes whose Edges() is edges, which
// it keeps, and whose absolute weights sum to abs (absSum). The caller
// guarantees what AddEdge would check or merge: I < J in range, no pair
// listed twice and a finite abs. Adjacency rows are cut from
// one array at their exact length, so a later AddEdge reallocates the
// row it grows and never writes into the next one.
func fromEdges(n int, edges []Edge, abs float64) *Graph {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.I]++
		deg[e.J]++
	}
	adj := make([][]Half, n)
	halves := make([]Half, 2*len(edges))
	for v, d := range deg {
		adj[v], halves = halves[:0:d], halves[d:]
	}
	for idx, e := range edges {
		adj[e.I] = append(adj[e.I], Half{To: e.J, W: e.W, Edge: idx})
		adj[e.J] = append(adj[e.J], Half{To: e.I, W: e.W, Edge: idx})
	}
	return &Graph{n: n, edges: edges, adj: adj, abs: abs}
}

// InducedSubgraph builds the subgraph on the given nodes. It returns
// the subgraph (nodes renumbered 0..len(nodes)-1 in the given order,
// edges in the parent's edge order) and the original-node index for
// each subgraph node. Duplicate nodes are an error. The cost is the
// summed degree of the given nodes, not the size of g.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int, error) {
	inv := make(map[int]int, len(nodes))
	for k, v := range nodes {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("graph: node %d out of range", v)
		}
		if _, dup := inv[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in subgraph spec", v)
		}
		inv[v] = k
	}
	// Each inside edge is found once, from its lower end; sorting the
	// indices restores the parent's edge order.
	var inside []int
	for _, v := range nodes {
		for _, h := range g.adj[v] {
			if h.To < v {
				continue
			}
			if _, ok := inv[h.To]; ok {
				inside = append(inside, h.Edge)
			}
		}
	}
	sort.Ints(inside)
	edges := make([]Edge, len(inside))
	for k, idx := range inside {
		e := g.edges[idx]
		i, j := inv[e.I], inv[e.J]
		if i > j {
			i, j = j, i
		}
		edges[k] = Edge{I: i, J: j, W: e.W}
	}
	// A subset of g's edges in g's order: its sum is bounded by g.abs.
	sub := fromEdges(len(nodes), edges, absSum(edges))
	mapping := make([]int, len(nodes))
	copy(mapping, nodes)
	return sub, mapping, nil
}

// Contract builds the quotient graph for a node grouping. groupOf maps
// each original node to its group id in [0, numGroups); weight
// transforms each original cross-group edge weight before accumulation
// (QAOA² uses this hook to flip the sign of already-cut edges). Edges
// within a group are dropped. Group pairs connected by several edges get
// a single edge carrying the transformed weights accumulated in edge
// order; exact cancellations (accumulated weight 0) keep their edge so
// connectivity is preserved. Edges are ordered by group pair. Merged
// weights that are NaN, or whose absolute values sum past float64's
// range, are an error, as they are in AddEdge.
func (g *Graph) Contract(groupOf []int, numGroups int, weight func(e Edge) float64) (*Graph, error) {
	if len(groupOf) != g.n {
		return nil, fmt.Errorf("graph: groupOf length %d != n %d", len(groupOf), g.n)
	}
	for v, gr := range groupOf {
		if gr < 0 || gr >= numGroups {
			return nil, fmt.Errorf("graph: node %d assigned to invalid group %d", v, gr)
		}
	}
	// Group pair, packed lower<<32 | higher, and transformed weight of
	// every cross edge, in edge order: position p holds the p-th.
	cross := 0
	for _, e := range g.edges {
		if groupOf[e.I] != groupOf[e.J] {
			cross++
		}
	}
	pair, w := make([]uint64, cross), make([]float64, cross)
	byHigher, byPair := make([]int32, cross), make([]int32, cross)
	p := 0
	for _, e := range g.edges {
		if gi, gj := groupOf[e.I], groupOf[e.J]; gi != gj {
			pair[p], w[p] = uint64(min(gi, gj))<<32|uint64(max(gi, gj)), weight(e)
			byPair[p] = int32(p)
			p++
		}
	}
	// Order the positions by group pair with two stable counting passes
	// (higher group, then lower), so each pair's run is still in edge
	// order.
	next := make([]int, numGroups)
	pass := func(dst, src []int32, shift int) {
		clear(next)
		for _, p := range src {
			next[uint32(pair[p]>>shift)]++
		}
		at := 0
		for k, c := range next {
			next[k], at = at, at+c
		}
		for _, p := range src {
			gr := uint32(pair[p] >> shift)
			dst[next[gr]] = p
			next[gr]++
		}
	}
	pass(byHigher, byPair, 0)
	pass(byPair, byHigher, 32)
	// No pair is all ones: its lower group is below its higher one.
	runs, last := 0, uint64(math.MaxUint64)
	for _, p := range byPair {
		if pair[p] != last {
			runs, last = runs+1, pair[p]
		}
	}
	merged := make([]Edge, 0, runs)
	last = math.MaxUint64
	for _, p := range byPair {
		if pair[p] != last {
			last = pair[p]
			merged = append(merged, Edge{I: int(last >> 32), J: int(uint32(last))})
		}
		merged[len(merged)-1].W += w[p]
	}
	abs := absSum(merged)
	if r := absRefusal(abs); r != "" {
		return nil, fmt.Errorf("graph: quotient: %s", r)
	}
	return fromEdges(numGroups, merged, abs), nil
}

// Density returns 2m / (n(n-1)), the fraction of possible edges present.
func (g *Graph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return 2 * float64(len(g.edges)) / (float64(g.n) * float64(g.n-1))
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d w=%.3f}", g.n, len(g.edges), g.TotalWeight())
}
