// Package partition implements the graph-dividing step of QAOA² (paper
// §3.3 step 2): communities are found with the Clauset-Newman-Moore
// greedy modularity agglomeration — the algorithm behind NetworkX's
// greedy_modularity_communities, which the paper uses — and any
// community larger than the qubit budget is split recursively until
// every part fits.
package partition

import (
	"fmt"
	"sort"

	"qaoa2/internal/graph"
)

// Modularity computes Newman's weighted modularity
//
//	Q = Σ_c [ Σ_in(c)/(2m) − (Σ_tot(c)/(2m))² ]
//
// for a disjoint community assignment (each node in exactly one part).
// Σ_in counts 2·(intra-community edge weight); Σ_tot the community's
// total weighted degree; m the total edge weight.
func Modularity(g *graph.Graph, communities [][]int) (float64, error) {
	n := g.N()
	comm := make([]int, n)
	for i := range comm {
		comm[i] = -1
	}
	for ci, nodes := range communities {
		for _, v := range nodes {
			if v < 0 || v >= n {
				return 0, fmt.Errorf("partition: node %d out of range", v)
			}
			if comm[v] != -1 {
				return 0, fmt.Errorf("partition: node %d in two communities", v)
			}
			comm[v] = ci
		}
	}
	for v, c := range comm {
		if c == -1 {
			return 0, fmt.Errorf("partition: node %d unassigned", v)
		}
	}
	m2 := 2 * g.TotalWeight()
	if m2 == 0 {
		return 0, nil
	}
	k := len(communities)
	sumIn := make([]float64, k)  // 2·intra weight
	sumTot := make([]float64, k) // total degree
	for _, e := range g.Edges() {
		if comm[e.I] == comm[e.J] {
			sumIn[comm[e.I]] += 2 * e.W
		}
		sumTot[comm[e.I]] += e.W
		sumTot[comm[e.J]] += e.W
	}
	q := 0.0
	for c := 0; c < k; c++ {
		q += sumIn[c]/m2 - (sumTot[c]/m2)*(sumTot[c]/m2)
	}
	return q, nil
}

// pairKey orders an unordered community pair.
type pairKey struct{ a, b int }

func mkPair(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// heapItem is a candidate merge with its modularity gain.
type heapItem struct {
	dq   float64
	pair pairKey
	// stamp invalidates stale entries lazily (communities mutate).
	stamp int
}

// mergeHeap is a binary max-heap of candidate merges, typed so a push
// or pop moves a value instead of boxing it into an interface.
type mergeHeap []heapItem

// before imposes a TOTAL order (gain desc, then pair, then stamp): map
// iteration randomizes push order, and only a total order keeps the pop
// sequence — and therefore the whole partition — deterministic.
func (x heapItem) before(y heapItem) bool {
	if x.dq != y.dq {
		return x.dq > y.dq // max-heap on gain
	}
	if x.pair.a != y.pair.a {
		return x.pair.a < y.pair.a
	}
	if x.pair.b != y.pair.b {
		return x.pair.b < y.pair.b
	}
	return x.stamp > y.stamp
}

func (h *mergeHeap) push(it heapItem) {
	s := append(*h, it)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the first item in the order; h must be non-empty.
func (h *mergeHeap) pop() heapItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		first := i
		if l := 2*i + 1; l < n && s[l].before(s[first]) {
			first = l
		}
		if r := 2*i + 2; r < n && s[r].before(s[first]) {
			first = r
		}
		if first == i {
			break
		}
		s[i], s[first] = s[first], s[i]
		i = first
	}
	return top
}

// GreedyModularity runs CNM agglomeration: every node starts as its own
// community and the merge with the largest modularity gain is applied
// while a positive gain exists. Communities are returned as sorted node
// lists ordered by their smallest node. Matches NetworkX's
// greedy_modularity_communities on connected weighted graphs.
func GreedyModularity(g *graph.Graph) [][]int {
	n := g.N()
	if n == 0 {
		return nil
	}
	m2 := 2 * g.TotalWeight()
	if m2 == 0 {
		// No edges: every node is its own community.
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{i}
		}
		return out
	}

	// State: community id = smallest-index representative via DSU-like
	// alive map. e[c][d] = fraction of edge weight between c and d;
	// a[c] = fraction of degree in c.
	alive := make([]bool, n)
	members := make([][]int, n)
	a := make([]float64, n)
	e := make([]map[int]float64, n)
	stamps := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		members[v] = []int{v}
		a[v] = g.WeightedDegree(v) / m2
		e[v] = make(map[int]float64)
	}
	for _, ed := range g.Edges() {
		e[ed.I][ed.J] += ed.W / m2
		e[ed.J][ed.I] += ed.W / m2
	}

	h := make(mergeHeap, 0, g.M())
	push := func(c, d int) {
		dq := 2 * (e[c][d] - a[c]*a[d])
		h.push(heapItem{dq: dq, pair: mkPair(c, d), stamp: stamps[c] + stamps[d]})
	}
	for c := 0; c < n; c++ {
		for d := range e[c] {
			if c < d {
				push(c, d)
			}
		}
	}

	for len(h) > 0 {
		it := h.pop()
		c, d := it.pair.a, it.pair.b
		if !alive[c] || !alive[d] {
			continue
		}
		if it.stamp != stamps[c]+stamps[d] {
			continue // stale entry: community changed since push
		}
		if it.dq <= 1e-15 {
			break // best remaining merge no longer improves Q
		}
		// Merge d into c.
		members[c] = append(members[c], members[d]...)
		members[d] = nil
		alive[d] = false
		a[c] += a[d]
		stamps[c]++
		for nb, w := range e[d] {
			if nb == c {
				continue
			}
			e[c][nb] += w
			e[nb][c] += w
			delete(e[nb], d)
		}
		delete(e[c], d)
		e[d] = nil
		// Refresh candidate merges around c.
		for nb := range e[c] {
			if alive[nb] {
				push(c, nb)
			}
		}
	}

	var out [][]int
	for c := 0; c < n; c++ {
		if alive[c] {
			nodes := append([]int(nil), members[c]...)
			sort.Ints(nodes)
			out = append(out, nodes)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// SizeCapped partitions g into parts of at most maxSize nodes: greedy
// modularity first, then any oversized community is recursively split on
// its induced subgraph (paper §3.3: "If a sub-graph has more nodes than
// n, the sub-graph is divided into fewer sub-graphs, recursively"). If
// modularity refuses to split a piece (single community), it falls back
// to a balanced bisection so progress is guaranteed.
func SizeCapped(g *graph.Graph, maxSize int) ([][]int, error) {
	if maxSize < 1 {
		return nil, fmt.Errorf("partition: maxSize must be positive, got %d", maxSize)
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	var out [][]int
	if err := splitRecursive(g, all, maxSize, &out, 0); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

func splitRecursive(g *graph.Graph, nodes []int, maxSize int, out *[][]int, depth int) error {
	if len(nodes) == 0 {
		return nil
	}
	if len(nodes) <= maxSize {
		part := append([]int(nil), nodes...)
		sort.Ints(part)
		*out = append(*out, part)
		return nil
	}
	if depth > 64 {
		return fmt.Errorf("partition: recursion depth exceeded (maxSize=%d)", maxSize)
	}
	sub, mapping, err := g.InducedSubgraph(nodes)
	if err != nil {
		return err
	}
	comms := GreedyModularity(sub)
	if len(comms) <= 1 {
		comms = bisect(sub)
	}
	for _, comm := range comms {
		mapped := make([]int, len(comm))
		for i, v := range comm {
			mapped[i] = mapping[v]
		}
		if err := splitRecursive(g, mapped, maxSize, out, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// bisect splits a graph's nodes into two balanced halves by BFS layering
// from the highest-degree node, keeping connected chunks together where
// possible. Used only when modularity finds no community structure.
func bisect(g *graph.Graph) [][]int {
	n := g.N()
	if n < 2 {
		return [][]int{allNodes(n)}
	}
	start := 0
	for v := 1; v < n; v++ {
		if g.Degree(v) > g.Degree(start) {
			start = v
		}
	}
	order := make([]int, 0, n)
	seen := make([]bool, n)
	queue := []int{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, h := range g.Neighbors(v) {
			if !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	for v := 0; v < n; v++ { // disconnected leftovers
		if !seen[v] {
			order = append(order, v)
		}
	}
	half := n / 2
	a, b := order[:half], order[half:]
	// Refine the BFS split with Kernighan-Lin so the recursive division
	// severs as little weight as possible.
	if ra, rb, err := KernighanLin(g, a, b, 4); err == nil && len(ra) > 0 && len(rb) > 0 {
		return [][]int{ra, rb}
	}
	return [][]int{a, b}
}

func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
