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

// merge is the one queue entry of a live pair of adjacent communities
// a < b: w is the fraction of edge weight between them, dq the
// modularity gain of merging them, pos its index in the mergeQueue.
// Both communities' adjacency rows point at the same entry.
type merge struct {
	w, dq float64
	a, b  int
	pos   int
}

// before is a TOTAL order over live entries (gain desc, then pair):
// rows are maps, so the order entries are touched in is random, and
// only a total order over unique keys keeps the pop sequence — and
// therefore the whole partition — deterministic.
func (x *merge) before(y *merge) bool {
	if x.dq != y.dq {
		return x.dq > y.dq // max-heap on gain
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// mergeQueue is an index-tracked binary max-heap holding exactly one
// entry per live community pair — NetworkX's indexed priority queue.
// Entries are re-keyed or removed in place when a community changes, so
// it only ever shrinks from its initial M entries.
type mergeQueue []*merge

func (q mergeQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i, j
}

func (q mergeQueue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q.swap(i, parent)
		i, moved = parent, true
	}
	return moved
}

func (q mergeQueue) down(i int) {
	for n := len(q); ; {
		first := i
		if l := 2*i + 1; l < n && q[l].before(q[first]) {
			first = l
		}
		if r := 2*i + 2; r < n && q[r].before(q[first]) {
			first = r
		}
		if first == i {
			return
		}
		q.swap(i, first)
		i = first
	}
}

// fix restores the heap order after the key of m alone has changed.
func (q mergeQueue) fix(m *merge) {
	if !q.up(m.pos) {
		q.down(m.pos)
	}
}

// remove deletes m from the queue.
func (q *mergeQueue) remove(m *merge) {
	s := *q
	i, n := m.pos, len(s)-1
	if i != n {
		s.swap(i, n)
	}
	s[n] = nil
	*q = s[:n]
	if i != n {
		(*q).fix((*q)[i])
	}
}

// cnm is the state of one Clauset-Newman-Moore agglomeration. A
// community is named by its smallest node: merging the pair c < d
// folds d into c.
type cnm struct {
	a       []float64        // a[c]: fraction of total degree in c
	rows    []map[int]*merge // rows[c][d]: the entry of pair {c,d}; nil once c is merged away
	members [][]int
	queue   mergeQueue
}

func newCNM(g *graph.Graph, m2 float64) *cnm {
	n := g.N()
	s := &cnm{
		a:       make([]float64, n),
		rows:    make([]map[int]*merge, n),
		members: make([][]int, n),
		queue:   make(mergeQueue, g.M()),
	}
	for v := 0; v < n; v++ {
		s.members[v] = []int{v}
		s.a[v] = g.WeightedDegree(v) / m2
		s.rows[v] = make(map[int]*merge, g.Degree(v))
	}
	entries := make([]merge, g.M())
	for k, ed := range g.Edges() {
		m := &entries[k]
		*m = merge{w: ed.W / m2, a: ed.I, b: ed.J, pos: k}
		m.dq = 2 * (m.w - s.a[m.a]*s.a[m.b])
		s.rows[m.a][m.b] = m
		s.rows[m.b][m.a] = m
		s.queue[k] = m
	}
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.queue.down(i)
	}
	return s
}

// mergeBest applies the merge with the largest modularity gain and
// reports false, changing nothing, once no merge improves Q.
func (s *cnm) mergeBest() bool {
	if len(s.queue) == 0 || s.queue[0].dq <= 1e-15 {
		return false
	}
	top := s.queue[0]
	c, d := top.a, top.b
	s.queue.remove(top)
	s.members[c] = append(s.members[c], s.members[d]...)
	s.members[d] = nil
	s.a[c] += s.a[d]
	delete(s.rows[c], d)
	// Fold d's row into c's. The queue is fixed after every single key
	// change, so it is a valid heap at each step.
	for nb, m := range s.rows[d] {
		if nb == c {
			continue
		}
		delete(s.rows[nb], d)
		if cm, ok := s.rows[c][nb]; ok {
			cm.w += m.w
			s.queue.remove(m)
			continue
		}
		m.a, m.b = c, nb
		if nb < c {
			m.a, m.b = nb, c
		}
		s.rows[c][nb] = m
		s.rows[nb][c] = m
		s.queue.fix(m)
	}
	s.rows[d] = nil
	for nb, m := range s.rows[c] {
		m.dq = 2 * (m.w - s.a[c]*s.a[nb])
		s.queue.fix(m)
	}
	return true
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
	s := newCNM(g, m2)
	for s.mergeBest() {
	}
	var out [][]int
	for _, nodes := range s.members {
		if nodes != nil {
			sort.Ints(nodes)
			out = append(out, nodes)
		}
	}
	return out // already ordered by smallest node: members[c] starts at c
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
