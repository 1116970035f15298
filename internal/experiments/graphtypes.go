package experiments

import (
	"fmt"
	"slices"

	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/partition"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	"qaoa2/internal/sdp"
	"qaoa2/internal/solver"
)

// GraphFamily is one graph class for the §5 outlook experiment ("this
// motivates the investigation of other graph types").
type GraphFamily struct {
	Name     string
	Generate func(n int, r *rng.Rand) *graph.Graph
}

// StandardFamilies covers the classes common in the QAOA literature:
// the paper's sparse/denser Erdős–Rényi, 3-regular graphs (the QAOA
// benchmark standard), and planted community graphs (best case for the
// modularity divider).
func StandardFamilies() []GraphFamily {
	return []GraphFamily{
		{"er-0.1", func(n int, r *rng.Rand) *graph.Graph {
			return graph.ErdosRenyi(n, 0.1, graph.Unweighted, r)
		}},
		{"er-0.3", func(n int, r *rng.Rand) *graph.Graph {
			return graph.ErdosRenyi(n, 0.3, graph.Unweighted, r)
		}},
		{"regular-3", func(n int, r *rng.Rand) *graph.Graph {
			if n%2 == 1 {
				n++
			}
			return graph.Regular3(n, r)
		}},
		{"community", func(n int, r *rng.Rand) *graph.Graph {
			k := n / 10
			if k < 2 {
				k = 2
			}
			g, _ := graph.PlantedCommunities(k, n/k, 0.6, 0.03, graph.Unweighted, r)
			return g
		}},
	}
}

// GraphTypeRow is one family's comparison.
type GraphTypeRow struct {
	Family    string
	Nodes     int
	Edges     int
	QAOA2     float64 // QAOA² with GW leaves (deterministic, fast)
	GWFull    float64 // GW on the whole graph
	Random    float64
	SubGraphs int
}

// RunGraphTypes compares QAOA² against full-graph GW and random cuts
// across graph families at a fixed size.
func RunGraphTypes(families []GraphFamily, nodes, maxQubits int, seed uint64) ([]GraphTypeRow, error) {
	if nodes < 2 || maxQubits < 2 {
		return nil, fmt.Errorf("experiments: bad graph-type config n=%d q=%d", nodes, maxQubits)
	}
	var rows []GraphTypeRow
	for fi, fam := range families {
		r := rng.New(seed ^ uint64(fi)<<24)
		g := fam.Generate(nodes, r)
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits:   maxQubits,
			Solver:      solver.GWSolver{},
			MergeSolver: solver.GWSolver{},
			Seed:        seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: family %s: %w", fam.Name, err)
		}
		gwFull, err := gw.Solve(g, sdp.Options{Seed: seed}, rng.New(seed))
		if err != nil {
			return nil, err
		}
		rows = append(rows, GraphTypeRow{
			Family:    fam.Name,
			Nodes:     g.N(),
			Edges:     g.M(),
			QAOA2:     res.Cut.Value,
			GWFull:    gwFull.Average,
			Random:    maxcut.RandomCut(g, 1, rng.New(seed^0xbeef)).Value,
			SubGraphs: res.SubGraphs,
		})
	}
	return rows, nil
}

// RenderGraphTypes tabulates the comparison with GW-relative ratios.
func RenderGraphTypes(rows []GraphTypeRow) string {
	header := []string{"family", "n", "m", "qaoa2", "gw-full", "random", "qaoa2/gw", "subgraphs"}
	var table [][]string
	for _, r := range rows {
		ratio := 0.0
		if r.GWFull > 0 {
			ratio = r.QAOA2 / r.GWFull
		}
		table = append(table, []string{
			r.Family,
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Edges),
			fmtF(r.QAOA2),
			fmtF(r.GWFull),
			fmtF(r.Random),
			fmtF(ratio),
			fmt.Sprintf("%d", r.SubGraphs),
		})
	}
	return RenderTable("Graph types: QAOA² vs GW-full vs random (§5 outlook)", header, table)
}

// PartitionAblationRow compares partitioners under identical solvers.
type PartitionAblationRow struct {
	Method    string
	Cut       float64
	SubGraphs int
	CrossW    float64 // weight crossing between parts (lower = better divider)
}

// RunPartitionAblation measures how much the greedy-modularity divider
// matters: the same QAOA² pipeline runs with (a) the paper's
// modularity partition, (b) naive contiguous chunks, and (c) a random
// balanced partition.
func RunPartitionAblation(nodes int, prob float64, maxQubits int, seed uint64) ([]PartitionAblationRow, error) {
	r := rng.New(seed)
	g := graph.ErdosRenyi(nodes, prob, graph.Unweighted, r)

	// chunk cuts a node order into consecutive parts of maxQubits,
	// each its own copy.
	chunk := func(order []int) [][]int {
		var parts [][]int
		for start := 0; start < nodes; start += maxQubits {
			parts = append(parts, slices.Clone(order[start:min(start+maxQubits, nodes)]))
		}
		return parts
	}
	identity := make([]int, nodes)
	for v := range identity {
		identity[v] = v
	}

	configs := []struct {
		name  string
		parts [][]int // nil = modularity
	}{
		{"modularity", nil},
		{"chunks", chunk(identity)},
		{"random", chunk(rng.New(seed ^ 0x1234).Perm(nodes))},
	}
	var rows []PartitionAblationRow
	for _, cfg := range configs {
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits:   maxQubits,
			Solver:      solver.GWSolver{},
			MergeSolver: solver.GWSolver{},
			Partition:   cfg.parts,
			Seed:        seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: partition ablation %s: %w", cfg.name, err)
		}
		// Cross weight of the used partition: recover groups from the
		// explicit partition, or recompute the modularity one.
		parts := cfg.parts
		if parts == nil {
			parts, err = partition.SizeCapped(g, maxQubits)
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, PartitionAblationRow{
			Method:    cfg.name,
			Cut:       res.Cut.Value,
			SubGraphs: res.SubGraphs,
			CrossW:    partitionCrossWeight(g, parts),
		})
	}
	return rows, nil
}

// partitionCrossWeight sums weight of edges whose endpoints lie in
// different parts.
func partitionCrossWeight(g *graph.Graph, parts [][]int) float64 {
	group := make([]int, g.N())
	for i := range group {
		group[i] = -1
	}
	for pi, part := range parts {
		for _, v := range part {
			group[v] = pi
		}
	}
	w := 0.0
	for _, e := range g.Edges() {
		if group[e.I] != group[e.J] {
			w += e.W
		}
	}
	return w
}

// RenderPartitionAblation tabulates the divider comparison.
func RenderPartitionAblation(rows []PartitionAblationRow) string {
	header := []string{"partitioner", "cut", "subgraphs", "cross weight"}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Method, fmtF(r.Cut), fmt.Sprintf("%d", r.SubGraphs), fmtF(r.CrossW)})
	}
	return RenderTable("Partition ablation: divider choice under identical solvers", header, table)
}
