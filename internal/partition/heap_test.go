package partition

import (
	"container/heap"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
)

// pairKey orders an unordered community pair.
type pairKey struct{ a, b int }

func mkPair(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// heapItem is a candidate merge of the lazy queue: stamp invalidates
// stale entries (communities mutate after the push).
type heapItem struct {
	dq    float64
	pair  pairKey
	stamp int
}

// before is the lazy queue's total order (gain desc, then pair, then
// stamp). Restricted to valid entries — one per live pair — it is the
// order of merge.before.
func (x heapItem) before(y heapItem) bool {
	if x.dq != y.dq {
		return x.dq > y.dq
	}
	if x.pair.a != y.pair.a {
		return x.pair.a < y.pair.a
	}
	if x.pair.b != y.pair.b {
		return x.pair.b < y.pair.b
	}
	return x.stamp > y.stamp
}

// boxedHeap is the lazy container/heap merge queue GreedyModularity
// first ran on: every neighbour of a merged community is pushed again
// and stale entries are skipped when popped. Kept as the reference the
// indexed mergeQueue must reproduce: same total order over the same
// valid entries, so the same pop sequence.
type boxedHeap []heapItem

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].before(h[j]) }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// greedyModularityBoxed is GreedyModularity as it stood on the boxed
// heap, line for line, with a size cap added the lazy way: a popped
// pair whose communities hold more than limit nodes together is
// discarded. Sizes only grow, so a discarded pair never fits again.
func greedyModularityBoxed(g *graph.Graph, limit int) [][]int {
	n := g.N()
	if n == 0 {
		return nil
	}
	m2 := 2 * g.TotalWeight()
	if m2 == 0 {
		out := make([][]int, n)
		for i := range out {
			out[i] = []int{i}
		}
		return out
	}
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
	h := &boxedHeap{}
	push := func(c, d int) {
		dq := 2 * (e[c][d] - a[c]*a[d])
		heap.Push(h, heapItem{dq: dq, pair: mkPair(c, d), stamp: stamps[c] + stamps[d]})
	}
	for c := 0; c < n; c++ {
		for d := range e[c] {
			if c < d {
				push(c, d)
			}
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		c, d := it.pair.a, it.pair.b
		if !alive[c] || !alive[d] {
			continue
		}
		if it.stamp != stamps[c]+stamps[d] {
			continue
		}
		if len(members[c])+len(members[d]) > limit {
			continue
		}
		if it.dq <= 1e-15 {
			break
		}
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

// checkedGreedy is the agglomeration capped at limit with the
// workspace audited after every merge. The queue: never more than the M
// items it started with, each child after its 4-ary parent in the order
// written out below from the entries, pos and the heap slots
// round-tripping, each item's inline key the pair and the gain its
// entry gives, and no pair over the limit. The rows: every entry names
// its row's community, both recorded slots point back at it, no row
// holds an entry of a dead community, two entries of one pair or a pair
// whose sizes sum past the limit, every row entry has its slot in the
// queue and the rows hold each queued pair twice, so the queue holds
// exactly one slot per live pair. The live communities' sizes sum to n.
func checkedGreedy(t *testing.T, name string, g *graph.Graph, limit int) {
	t.Helper()
	m2 := 2 * g.TotalWeight()
	if g.N() == 0 || m2 == 0 {
		return
	}
	s := newCNM(g.N(), g.M(), limit)
	if s.limit != int32(limit) {
		t.Fatalf("%s: workspace limit %d, want %d", name, s.limit, limit)
	}
	// ahead is the queue's total order — gain desc, then a, then b —
	// taken from the entries, not from the inline pair.
	ahead := func(x, y item) bool {
		ex, ey := s.entries[x.k], s.entries[y.k]
		if x.dq != y.dq {
			return x.dq > y.dq
		}
		if ex.a != ey.a {
			return ex.a < ey.a
		}
		return ex.b < ey.b
	}
	s.reset(g, m2)
	for step := 0; ; step++ {
		heap := s.queue.heap
		if len(heap) > g.M() {
			t.Fatalf("%s step %d: queue holds %d items, graph has %d edges", name, step, len(heap), g.M())
		}
		for i, it := range heap {
			if it.k < 0 || int(it.k) >= g.M() || s.queue.pos[it.k] != int32(i) {
				t.Fatalf("%s step %d: slot %d holds entry %d, which records another slot", name, step, i, it.k)
			}
			m := s.entries[it.k]
			if it.pair != uint64(m.a)<<32|uint64(m.b) {
				t.Fatalf("%s step %d: slot %d keys pair %#x, its entry is {%d,%d}", name, step, i, it.pair, m.a, m.b)
			}
			if dq := 2 * (m.w - s.a[m.a]*s.a[m.b]); it.dq != dq {
				t.Fatalf("%s step %d: pair {%d,%d} queued at gain %v, its entry gives %v", name, step, m.a, m.b, it.dq, dq)
			}
			if sum := s.size[m.a] + s.size[m.b]; sum > int32(limit) {
				t.Fatalf("%s step %d: queue holds pair {%d,%d} of %d nodes, limit %d", name, step, m.a, m.b, sum, limit)
			}
			if i > 0 && ahead(it, heap[(i-1)/4]) {
				t.Fatalf("%s step %d: slot %d sorts before its parent", name, step, i)
			}
		}
		halves, members := 0, 0
		seen := make([]int, g.N()) // seen[o] = c+1: row c has a pair with o
		for c, row := range s.rows[:g.N()] {
			halves += len(row)
			if s.tail[c] >= 0 {
				members += int(s.size[c])
			}
			if len(row) > 0 && s.tail[c] < 0 {
				t.Fatalf("%s step %d: dead community %d holds %d entries", name, step, c, len(row))
			}
			for i, k := range row {
				m := &s.entries[k]
				if m.a != int32(c) && m.b != int32(c) {
					t.Fatalf("%s step %d: row %d holds pair {%d,%d}", name, step, c, m.a, m.b)
				}
				if m.a >= m.b || s.tail[m.a] < 0 || s.tail[m.b] < 0 {
					t.Fatalf("%s step %d: row %d entry is pair {%d,%d}", name, step, c, m.a, m.b)
				}
				if sum := s.size[m.a] + s.size[m.b]; sum > int32(limit) {
					t.Fatalf("%s step %d: row %d holds pair {%d,%d} of %d nodes, limit %d", name, step, c, m.a, m.b, sum, limit)
				}
				if m.slot(int32(c)) != int32(i) {
					t.Fatalf("%s step %d: row %d slot %d holds an entry recording slot %d", name, step, c, i, m.slot(int32(c)))
				}
				o := m.other(int32(c))
				if s.rows[o][m.slot(o)] != k {
					t.Fatalf("%s step %d: pair {%d,%d} is not at its slot in row %d", name, step, m.a, m.b, o)
				}
				if seen[o] == c+1 {
					t.Fatalf("%s step %d: row %d holds two entries for pair {%d,%d}", name, step, c, m.a, m.b)
				}
				seen[o] = c + 1
				if p := s.queue.pos[k]; p < 0 || int(p) >= len(heap) || heap[p].k != k {
					t.Fatalf("%s step %d: pair {%d,%d} is not at its queue slot", name, step, m.a, m.b)
				}
			}
		}
		if members != g.N() {
			t.Fatalf("%s step %d: live communities hold %d nodes, graph has %d", name, step, members, g.N())
		}
		if halves != 2*len(heap) {
			t.Fatalf("%s step %d: %d row entries for %d queued pairs", name, step, halves, len(heap))
		}
		if !s.mergeBest() {
			return
		}
	}
}

// mergeGraphOf builds the signed contracted graph a QAOA² solve hands
// to its merge level: parts from SizeCapped, each part's spins from a
// greedy local assignment, cut edges entering with flipped sign. Its
// total weight — the partitioner's m2 — can be small or negative.
func mergeGraphOf(t *testing.T, g *graph.Graph, budget int) *graph.Graph {
	t.Helper()
	parts, err := SizeCapped(g, budget)
	if err != nil {
		t.Fatal(err)
	}
	groupOf := make([]int, g.N())
	spins := make([]int8, g.N())
	for pi, part := range parts {
		for _, v := range part {
			groupOf[v] = pi
			pull := 0.0
			for _, h := range g.Neighbors(v) {
				if groupOf[h.To] == pi {
					pull += h.W * float64(spins[h.To])
				}
			}
			spins[v] = 1
			if pull > 0 {
				spins[v] = -1
			}
		}
	}
	merged, err := g.Contract(groupOf, len(parts), func(e graph.Edge) float64 {
		if spins[e.I] != spins[e.J] {
			return -e.W
		}
		return e.W
	})
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestTypedHeapKeepsPartitions runs the agglomeration over the fuzz
// corpus, the ER graphs the benchmark partitions and the signed merge
// graphs of two of them, and requires the indexed queue's communities
// to equal the lazy boxed heap's, uncapped and at each graph's budget,
// with the workspace audited after every merge at limits 2, 5, 16 and n.
func TestTypedHeapKeepsPartitions(t *testing.T) {
	check := func(name string, g *graph.Graph, budget int) {
		if got, want := GreedyModularity(g), greedyModularityBoxed(g, g.N()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: indexed queue partition differs\n got %v\nwant %v", name, got, want)
		}
		got, err := SizeCapped(g, budget)
		if err != nil {
			t.Fatal(err)
		}
		if want := greedyModularityBoxed(g, budget); g.N() > budget && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, budget %d: indexed queue partition differs\n got %v\nwant %v", name, budget, got, want)
		}
		for _, limit := range []int{2, 5, 16, g.N()} {
			checkedGreedy(t, fmt.Sprintf("%s limit %d", name, limit), g, limit)
		}
	}
	for i, seed := range fuzzSeeds() {
		if g, budget := graphFromBytes(seed); g != nil {
			check(fmt.Sprintf("fuzz seed %d", i), g, budget)
		}
	}
	check("ER(200)", graph.ErdosRenyi(200, 0.05, graph.Unweighted, rng.New(1)), 16)
	check("ER(200) weighted", graph.ErdosRenyi(200, 0.05, graph.UniformWeights, rng.New(2)), 8)
	check("ER(1400)", graph.ErdosRenyi(1400, 10.0/1400, graph.Unweighted, rng.New(3)), 16)
	er1200 := graph.ErdosRenyi(1200, 8.0/1200, graph.Unweighted, rng.New(4))
	check("ER(1200)", er1200, 12)
	check("ER(1200) merge graph", mergeGraphOf(t, er1200, 12), 12)
	check("ER(200) weighted merge graph", mergeGraphOf(t, graph.ErdosRenyi(200, 0.05, graph.UniformWeights, rng.New(5)), 8), 8)
}
