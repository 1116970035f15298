// Package partition implements the graph-dividing step of QAOA² (paper
// §3.3 step 2): communities are found with the Clauset-Newman-Moore
// greedy modularity agglomeration — the algorithm behind NetworkX's
// greedy_modularity_communities, which the paper uses — capped at the
// qubit budget: a pair of communities that together exceed it is never
// merged, so every part fits as built and nothing is split afterwards.
package partition

import (
	"fmt"
	"sort"
	"sync"

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

// merge is the entry of a live pair of adjacent communities a < b: w is
// the fraction of edge weight between them, and sa, sb its slots in
// rows[a] and rows[b]. Its gain and its place in the queue live in the
// queue.
type merge struct {
	w      float64
	a, b   int32
	sa, sb int32
}

// other returns the community paired with c.
func (x *merge) other(c int32) int32 {
	if x.a == c {
		return x.b
	}
	return x.a
}

// slot returns x's slot in c's row.
func (x *merge) slot(c int32) int32 {
	if x.a == c {
		return x.sa
	}
	return x.sb
}

func (x *merge) setSlot(c, i int32) {
	if x.a == c {
		x.sa = i
	} else {
		x.sb = i
	}
}

// item is one slot of the merge queue: the key of entry k inline, dq
// the modularity gain of merging the pair and pair its communities
// packed as a<<32 | b.
type item struct {
	dq   float64
	pair uint64
	k    int32
}

func pairOf(a, b int32) uint64 { return uint64(a)<<32 | uint64(b) }

// before is a TOTAL order over live entries (gain desc, then pair).
// Gains tie often (in an unweighted graph every edge whose endpoints
// have the same degree product has the same dq), and which of the tied
// entries tops the heap would otherwise depend on the order entries
// were touched in, which swap-removes permute. Only a total order over unique keys makes the
// pop sequence — and therefore the whole partition — a function of the
// keys alone, the same as the lazy-heap oracle's.
func (x *item) before(y *item) bool {
	if x.dq != y.dq {
		return x.dq > y.dq // max-heap on gain
	}
	return x.pair < y.pair
}

// mergeQueue is an index-tracked 4-ary max-heap holding exactly one
// item per live community pair — NetworkX's indexed priority queue.
// Items are re-keyed or removed in place when a community changes, so
// it only ever shrinks from its initial M items. Keys sit in the heap
// and pos[k] is entry k's slot, so a comparison reads no entry and a
// sift moves no pointer.
type mergeQueue struct {
	heap []item
	pos  []int32
}

// place puts x at slot i.
func (q *mergeQueue) place(i int, x item) {
	q.heap[i] = x
	q.pos[x.k] = int32(i)
}

// up sifts the item at i toward the root and reports whether it moved.
func (q *mergeQueue) up(i int) bool {
	x, start := q.heap[i], i
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&q.heap[parent]) {
			break
		}
		q.place(i, q.heap[parent])
		i = parent
	}
	if i == start {
		return false
	}
	q.place(i, x)
	return true
}

// down sifts the item at i toward the leaves.
func (q *mergeQueue) down(i int) {
	h := q.heap
	x := h[i]
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		best, end := first, min(first+4, len(h))
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&x) {
			break
		}
		q.place(i, h[best])
		i = best
	}
	q.place(i, x)
}

// fix gives entry k the key (dq, pair) and restores the heap order.
func (q *mergeQueue) fix(k int32, dq float64, pair uint64) {
	i := int(q.pos[k])
	q.heap[i].dq, q.heap[i].pair = dq, pair
	if !q.up(i) {
		q.down(i)
	}
}

// remove deletes entry k from the queue.
func (q *mergeQueue) remove(k int32) {
	i, n := int(q.pos[k]), len(q.heap)-1
	last := q.heap[n]
	q.heap = q.heap[:n]
	q.pos[k] = -1
	if i == n {
		return
	}
	q.place(i, last)
	if !q.up(i) {
		q.down(i)
	}
}

// cnm is one Clauset-Newman-Moore agglomeration capped at limit members
// per community, and the workspace it runs in. A community is named by
// its smallest node: merging the pair c < d folds d into c. Sizes only
// grow, so a pair whose sizes sum past the limit can never merge; it
// leaves the rows and the queue the moment it stops fitting, and every
// pair left holds the whole weight between its two communities. Nodes,
// entries and slots are int32.
type cnm struct {
	a       []float64 // a[c]: fraction of total degree in c
	size    []int32   // size[c]: members of c
	limit   int32
	entries []merge // entries[k] starts as edge k's pair
	queue   mergeQueue
	// rows[c] lists c's live pairs as indices into entries; it is empty
	// once c is merged away. A row starts as c's window of slots, in
	// adjacency order, and moves to spare when it outgrows the window.
	rows  [][]int32
	slots []int32 // 2·M
	spare []int32
	moved int     // row space this run took from spare, in all its arrays
	at    []int32 // at[nb]: while c absorbs d, c's entry for {c, nb}; else -1
	next  []int32 // next[v]: the member after v in its community, -1 at the end
	tail  []int32 // tail[c]: c's last member; -1 once c is merged away
}

// cnmPool holds idle workspaces. A sync.Pool drops what it holds across
// two garbage collections, so an idle process keeps none alive.
var cnmPool sync.Pool

// newCNM returns a workspace for a graph of n nodes and m edges, taken
// from cnmPool when it holds one.
func newCNM(n, m, limit int) *cnm {
	s, _ := cnmPool.Get().(*cnm)
	if s == nil {
		s = new(cnm)
	}
	s.fit(n, m, limit)
	return s
}

// fit sizes the workspace for a graph of n nodes and m edges, growing
// only the slices that are short.
func (s *cnm) fit(n, m, limit int) {
	s.a = grow(s.a, n)
	s.size = grow(s.size, n)
	s.limit = int32(limit)
	s.entries = grow(s.entries, m)
	s.queue.heap = grow(s.queue.heap, m)
	s.queue.pos = grow(s.queue.pos, m)
	s.rows = grow(s.rows, n)
	s.slots = grow(s.slots, 2*m)
	s.at = grow(s.at, n)
	s.next = grow(s.next, n)
	s.tail = grow(s.tail, n)
}

// grow returns x resliced to length n, or a new slice if x is short.
func grow[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}

// reset loads g, whose total weight is m2/2, as n singleton
// communities with one queue entry per edge.
func (s *cnm) reset(g *graph.Graph, m2 float64) {
	n, m := g.N(), g.M()
	free := s.slots[:2*m]
	for v := 0; v < n; v++ {
		s.a[v] = g.WeightedDegree(v) / m2
		s.size[v] = 1
		d := g.Degree(v)
		s.rows[v], free = free[:0:d], free[d:]
		s.at[v], s.next[v], s.tail[v] = -1, -1, int32(v)
	}
	s.spare, s.moved = s.spare[:0], 0
	s.queue.heap = s.queue.heap[:m]
	for k, ed := range g.Edges() {
		i, j := int32(ed.I), int32(ed.J)
		e := &s.entries[k]
		*e = merge{w: ed.W / m2, a: i, b: j, sa: int32(len(s.rows[i])), sb: int32(len(s.rows[j]))}
		s.rows[i] = append(s.rows[i], int32(k))
		s.rows[j] = append(s.rows[j], int32(k))
		s.queue.place(k, item{dq: 2 * (e.w - s.a[i]*s.a[j]), pair: pairOf(i, j), k: int32(k)})
	}
	// m ≥ 1: a graph without edges has no weight and never gets here.
	for i := (m - 2) / 4; i >= 0; i-- {
		s.queue.down(i)
	}
}

// unlink swap-removes entry k from c's row.
func (s *cnm) unlink(c, k int32) {
	row := s.rows[c]
	i, last := s.entries[k].slot(c), row[len(row)-1]
	row[i] = last
	s.entries[last].setSlot(c, i)
	s.rows[c] = row[:len(row)-1]
}

// drop removes entry k from nb's row and from the queue; the caller
// takes it out of the row of k's other community.
func (s *cnm) drop(nb, k int32) {
	s.unlink(nb, k)
	s.queue.remove(k)
}

// reserve makes room for k more entries in c's row. A row that outgrows
// its window moves to spare at twice the size it needs.
func (s *cnm) reserve(c int32, k int) {
	row := s.rows[c]
	if len(row)+k <= cap(row) {
		return
	}
	size := 2 * (len(row) + k)
	s.moved += size
	if cap(s.spare)-len(s.spare) < size {
		s.spare = make([]int32, 0, max(size, 2*cap(s.spare)))
	}
	at := len(s.spare)
	s.spare = s.spare[:at+size]
	s.rows[c] = s.spare[at : at+len(row) : at+size]
	copy(s.rows[c], row)
}

// mergeBest applies the merge with the largest modularity gain among
// the pairs that fit and reports false, changing nothing, once no merge
// improves Q.
func (s *cnm) mergeBest() bool {
	q := &s.queue
	if len(q.heap) == 0 || q.heap[0].dq <= 1e-15 {
		return false
	}
	top := q.heap[0].k
	c, d := s.entries[top].a, s.entries[top].b
	q.remove(top)
	s.unlink(c, top)
	s.a[c] += s.a[d]
	s.size[c] += s.size[d]
	s.next[s.tail[c]], s.tail[c], s.tail[d] = d, s.tail[d], -1
	// Compact c's row to the pairs that still fit and mark them.
	kept := s.rows[c][:0]
	for _, k := range s.rows[c] {
		m := &s.entries[k]
		nb := m.other(c)
		if s.size[c]+s.size[nb] > s.limit {
			s.drop(nb, k)
			continue
		}
		m.setSlot(c, int32(len(kept)))
		kept = append(kept, k)
		s.at[nb] = k
	}
	s.rows[c] = kept
	// Fold d's row into c's. The queue is fixed after every single key
	// change, so it is a valid heap at each step.
	s.reserve(c, len(s.rows[d])-1)
	for _, k := range s.rows[d] {
		if k == top {
			continue
		}
		m := &s.entries[k]
		nb := m.other(d)
		if ck := s.at[nb]; ck >= 0 {
			s.entries[ck].w += m.w
			s.drop(nb, k)
			continue
		}
		if s.size[c]+s.size[nb] > s.limit {
			s.drop(nb, k)
			continue
		}
		// m now stands for {c, nb}: it keeps its slot in nb's row, takes
		// the next one in c's, and gets its gain now, by the same
		// formula as c's own entries below.
		sc, snb := int32(len(s.rows[c])), m.slot(nb)
		s.rows[c] = append(s.rows[c], k)
		if c < nb {
			m.a, m.sa, m.b, m.sb = c, sc, nb, snb
		} else {
			m.a, m.sa, m.b, m.sb = nb, snb, c, sc
		}
		q.fix(k, 2*(m.w-s.a[c]*s.a[nb]), pairOf(m.a, m.b))
	}
	s.rows[d] = nil
	for _, k := range s.rows[c][:len(kept)] {
		m := &s.entries[k]
		nb := m.other(c)
		s.at[nb] = -1
		q.fix(k, 2*(m.w-s.a[c]*s.a[nb]), pairOf(m.a, m.b))
	}
	return true
}

// communities runs the agglomeration on g, the graph the workspace is
// made for, until no merge that fits gains modularity, and returns the
// communities as sorted node lists ordered by their smallest node.
func (s *cnm) communities(g *graph.Graph) [][]int {
	n := g.N()
	if n == 0 {
		return nil
	}
	m2 := 2 * g.TotalWeight()
	if m2 == 0 || s.limit < 2 {
		// Nothing merges: every node is its own community.
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{i}
		}
		return out
	}
	s.reset(g, m2)
	for s.mergeBest() {
	}
	if cap(s.spare) < s.moved {
		// One array for all the rows this run moved, so the next divide
		// of a graph like g in this workspace grows nothing.
		s.spare = make([]int32, 0, s.moved)
	}
	count := 0
	for _, t := range s.tail {
		if t >= 0 {
			count++
		}
	}
	out := make([][]int, 0, count)
	nodes := make([]int, 0, n)
	for c, t := range s.tail {
		if t < 0 {
			continue
		}
		from := len(nodes)
		for v := int32(c); v >= 0; v = s.next[v] {
			nodes = append(nodes, int(v))
		}
		part := nodes[from:len(nodes):len(nodes)]
		sort.Ints(part)
		out = append(out, part)
	}
	return out
}

// GreedyModularity runs CNM agglomeration: every node starts as its own
// community and the merge with the largest modularity gain is applied
// while a positive gain exists. Communities are returned as sorted node
// lists ordered by their smallest node. Matches NetworkX's
// greedy_modularity_communities on connected weighted graphs. It is
// SizeCapped's agglomeration with a cap that never binds.
func GreedyModularity(g *graph.Graph) [][]int {
	return divide(g, g.N())
}

// SizeCapped partitions g into parts of at most maxSize nodes (paper
// §3.3: a sub-graph must fit the device). A graph that fits is one
// part; any other runs one CNM agglomeration that never merges a pair
// of communities whose sizes sum past maxSize, so the merges that would
// build an oversized community are never made and nothing is split
// afterwards. Each of those parts induces a connected sub-graph, since
// CNM only merges adjacent communities. Parts are sorted node lists
// ordered by their smallest node.
func SizeCapped(g *graph.Graph, maxSize int) ([][]int, error) {
	if maxSize < 1 {
		return nil, fmt.Errorf("partition: maxSize must be positive, got %d", maxSize)
	}
	n := g.N()
	switch {
	case n == 0:
		return nil, nil
	case n <= maxSize:
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, nil
	}
	return divide(g, maxSize), nil
}

// divide runs the agglomeration of g capped at limit in a pooled
// workspace and hands the workspace back; the parts it returns are
// allocated afresh, so they never alias it.
func divide(g *graph.Graph, limit int) [][]int {
	s := newCNM(g.N(), g.M(), limit)
	parts := s.communities(g)
	cnmPool.Put(s)
	return parts
}
