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
// modularity gain of merging them, pos its index in the mergeQueue, and
// sa, sb its slots in rows[a] and rows[b].
type merge struct {
	w, dq  float64
	a, b   int32
	sa, sb int32
	pos    int
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

// before is a TOTAL order over live entries (gain desc, then pair).
// Gains tie often (in an unweighted graph every edge whose endpoints
// have the same degree product has the same dq), and which of the tied
// entries tops the heap would otherwise depend on the order entries
// were touched in, which swap-removes permute. Only a total order over unique keys makes the
// pop sequence — and therefore the whole partition — a function of the
// keys alone, the same as the lazy-heap oracle's.
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
	at    []int32 // at[nb]: while c absorbs d, c's entry for {c, nb}; else -1
	next  []int32 // next[v]: the member after v in its community, -1 at the end
	tail  []int32 // tail[c]: c's last member; -1 once c is merged away
}

func newCNM(n, m, limit int) *cnm {
	return &cnm{
		a:       make([]float64, n),
		size:    make([]int32, n),
		limit:   int32(limit),
		entries: make([]merge, m),
		queue:   make(mergeQueue, m),
		rows:    make([][]int32, n),
		slots:   make([]int32, 2*m),
		at:      make([]int32, n),
		next:    make([]int32, n),
		tail:    make([]int32, n),
	}
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
	s.spare = s.spare[:0]
	s.queue = s.queue[:m]
	for k, ed := range g.Edges() {
		i, j := int32(ed.I), int32(ed.J)
		e := &s.entries[k]
		*e = merge{w: ed.W / m2, a: i, b: j, sa: int32(len(s.rows[i])), sb: int32(len(s.rows[j])), pos: k}
		e.dq = 2 * (e.w - s.a[i]*s.a[j])
		s.rows[i] = append(s.rows[i], int32(k))
		s.rows[j] = append(s.rows[j], int32(k))
		s.queue[k] = e
	}
	for i := m/2 - 1; i >= 0; i-- {
		s.queue.down(i)
	}
}

// unlink swap-removes e from c's row.
func (s *cnm) unlink(c int32, e *merge) {
	row := s.rows[c]
	i, last := e.slot(c), row[len(row)-1]
	row[i] = last
	s.entries[last].setSlot(c, i)
	s.rows[c] = row[:len(row)-1]
}

// drop removes e from nb's row and from the queue; the caller takes it
// out of the row of e's other community.
func (s *cnm) drop(nb int32, e *merge) {
	s.unlink(nb, e)
	s.queue.remove(e)
}

// reserve makes room for k more entries in c's row. A row that outgrows
// its window moves to spare at twice the size it needs.
func (s *cnm) reserve(c int32, k int) {
	row := s.rows[c]
	if len(row)+k <= cap(row) {
		return
	}
	size := 2 * (len(row) + k)
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
	if len(s.queue) == 0 || s.queue[0].dq <= 1e-15 {
		return false
	}
	top := s.queue[0]
	c, d := top.a, top.b
	s.queue.remove(top)
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
			s.drop(nb, m)
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
		m := &s.entries[k]
		if m == top {
			continue
		}
		nb := m.other(d)
		if ck := s.at[nb]; ck >= 0 {
			s.entries[ck].w += m.w
			s.drop(nb, m)
			continue
		}
		if s.size[c]+s.size[nb] > s.limit {
			s.drop(nb, m)
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
		m.dq = 2 * (m.w - s.a[c]*s.a[nb])
		s.queue.fix(m)
	}
	s.rows[d] = nil
	for _, k := range s.rows[c][:len(kept)] {
		m := &s.entries[k]
		nb := m.other(c)
		s.at[nb] = -1
		m.dq = 2 * (m.w - s.a[c]*s.a[nb])
		s.queue.fix(m)
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
	return newCNM(g.N(), g.M(), g.N()).communities(g)
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
	return newCNM(n, g.M(), maxSize).communities(g), nil
}
