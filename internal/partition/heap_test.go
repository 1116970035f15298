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

// boxedHeap is the container/heap merge queue GreedyModularity used
// before the typed mergeHeap, kept as the reference the typed heap must
// reproduce: same total order, so the same pop sequence.
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
// heap, line for line.
func greedyModularityBoxed(g *graph.Graph) [][]int {
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

// TestTypedHeapKeepsPartitions walks the same recursion SizeCapped does
// (every community above the budget is partitioned again on its induced
// sub-graph) over the fuzz corpus and the ER graphs the benchmark
// partitions, and requires the typed heap's communities to equal the
// boxed heap's at every level.
func TestTypedHeapKeepsPartitions(t *testing.T) {
	var walk func(name string, g *graph.Graph, budget, depth int)
	walk = func(name string, g *graph.Graph, budget, depth int) {
		got, want := GreedyModularity(g), greedyModularityBoxed(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s depth %d: typed heap partition differs\n got %v\nwant %v", name, depth, got, want)
		}
		if len(got) <= 1 {
			return
		}
		for _, comm := range got {
			if len(comm) <= budget {
				continue
			}
			sub, _, err := g.InducedSubgraph(comm)
			if err != nil {
				t.Fatal(err)
			}
			walk(name, sub, budget, depth+1)
		}
	}
	for i, seed := range fuzzSeeds() {
		if g, budget := graphFromBytes(seed); g != nil {
			walk(fmt.Sprintf("fuzz seed %d", i), g, budget, 0)
		}
	}
	walk("ER(200)", graph.ErdosRenyi(200, 0.05, graph.Unweighted, rng.New(1)), 16, 0)
	walk("ER(200) weighted", graph.ErdosRenyi(200, 0.05, graph.UniformWeights, rng.New(2)), 8, 0)
	walk("ER(1400)", graph.ErdosRenyi(1400, 10.0/1400, graph.Unweighted, rng.New(3)), 16, 0)
}
