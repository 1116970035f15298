package partition

import (
	"reflect"
	"testing"

	"qaoa2/internal/graph"
)

// FuzzSizeCapped fuzzes the QAOA² divider: for ANY graph and ANY
// positive qubit budget, the produced partition must be a disjoint
// cover of all nodes with every part sized within the budget — the
// invariant the whole divide-and-conquer rests on. A graph that does
// not fit must come back in parts that each induce a connected
// sub-graph, since CNM only merges adjacent communities, and equal to
// the lazy boxed heap's capped agglomeration part for part. The
// uncapped indexed queue must find the communities the uncapped lazy
// heap finds. The graph is decoded from raw fuzz bytes: the first byte
// sizes the node set, the second the budget, and each subsequent byte
// pair adds one edge.
func FuzzSizeCapped(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, maxSize := graphFromBytes(data)
		if g == nil {
			return
		}
		parts, err := SizeCapped(g, maxSize)
		if err != nil {
			// The only legitimate error is an invalid budget, which
			// graphFromBytes never produces.
			t.Fatalf("SizeCapped(n=%d, cap=%d): %v", g.N(), maxSize, err)
		}
		seen := make([]bool, g.N())
		for pi, part := range parts {
			if len(part) == 0 {
				t.Fatalf("part %d is empty", pi)
			}
			if len(part) > maxSize {
				t.Fatalf("part %d has %d nodes, budget %d", pi, len(part), maxSize)
			}
			for _, v := range part {
				if v < 0 || v >= g.N() {
					t.Fatalf("part %d references node %d outside [0,%d)", pi, v, g.N())
				}
				if seen[v] {
					t.Fatalf("node %d appears in two parts", v)
				}
				seen[v] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("node %d not covered by any part", v)
			}
		}
		if g.N() > maxSize {
			for pi, part := range parts {
				if !connected(g, part) {
					t.Fatalf("part %d %v does not induce a connected sub-graph", pi, part)
				}
			}
			if want := greedyModularityBoxed(g, maxSize); !reflect.DeepEqual(parts, want) {
				t.Fatalf("SizeCapped(n=%d, m=%d, cap=%d) = %v, capped lazy heap oracle %v", g.N(), g.M(), maxSize, parts, want)
			}
		}
		if got, want := GreedyModularity(g), greedyModularityBoxed(g, g.N()); !reflect.DeepEqual(got, want) {
			t.Fatalf("GreedyModularity(n=%d, m=%d) = %v, lazy heap oracle %v", g.N(), g.M(), got, want)
		}
	})
}

// connected reports whether part induces a connected sub-graph of g.
func connected(g *graph.Graph, part []int) bool {
	in := make(map[int]bool, len(part))
	for _, v := range part {
		in[v] = true
	}
	reached := map[int]bool{part[0]: true}
	stack := []int{part[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.Neighbors(v) {
			if in[h.To] && !reached[h.To] {
				reached[h.To] = true
				stack = append(stack, h.To)
			}
		}
	}
	return len(reached) == len(part)
}

// fuzzSeeds is the seed corpus: empty graph, single node, isolated
// nodes (no edge bytes), a complete graph, a single giant hub, a budget
// of 1, and a few chains.
func fuzzSeeds() [][]byte {
	return [][]byte{
		{0, 4},
		{1, 1},
		{20, 4},
		completeBytes(12, 4),
		hubBytes(25, 5),
		completeBytes(9, 1),
		{16, 3, 0, 1, 1, 2, 2, 3, 8, 9},
	}
}

// graphFromBytes decodes (graph, maxSize) from fuzz bytes. Node count
// is capped at 64 and edges at 256 so fuzzing explores structure, not
// scale.
func graphFromBytes(data []byte) (*graph.Graph, int) {
	if len(data) < 2 {
		return nil, 0
	}
	n := int(data[0]) % 65
	maxSize := int(data[1])%16 + 1
	g := graph.New(n)
	if n < 2 {
		return g, maxSize
	}
	edges := data[2:]
	if len(edges) > 512 {
		edges = edges[:512]
	}
	for k := 0; k+1 < len(edges); k += 2 {
		i := int(edges[k]) % n
		j := int(edges[k+1]) % n
		if i == j {
			continue
		}
		// Vary weights deterministically so weighted modularity paths
		// run too.
		w := float64(int(edges[k])+int(edges[k+1]))/255.0 + 0.01
		g.MustAddEdge(i, j, w)
	}
	return g, maxSize
}

func completeBytes(n, cap int) []byte {
	b := []byte{byte(n), byte(cap - 1)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b = append(b, byte(i), byte(j))
		}
	}
	return b
}

func hubBytes(n, cap int) []byte {
	b := []byte{byte(n), byte(cap - 1)}
	for v := 1; v < n; v++ {
		b = append(b, 0, byte(v))
	}
	return b
}
