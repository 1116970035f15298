package experiments

import (
	"fmt"

	"qaoa2/internal/graph"
	"qaoa2/internal/gw"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/rng"
	"qaoa2/internal/sdp"
	"qaoa2/internal/solver"
)

// Fig4Config parameterizes the large-graph QAOA² comparison of Fig. 4:
// unweighted G(n, p) instances, first-level sub-graphs solved either all
// with QAOA, all with GW, or with the best of the two; further merge
// iterations use the classical solver (as in the paper); plus the GW
// solution of the FULL graph, a random-partition baseline, and a
// control series whose leaves are solved exactly.
type Fig4Config struct {
	NodeCounts []int
	EdgeProb   float64
	MaxQubits  int          // sub-graph qubit budget n
	QAOA       qaoa.Options // leaf QAOA configuration
	Seed       uint64
}

// DefaultFig4Config is the paper's configuration: node counts
// {500,...,2500}, edge probability 0.1, 16-qubit sub-graphs, and the
// best (rhobeg=0.5, p=6) QAOA parameterization from the grid search.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		NodeCounts: []int{500, 1000, 1500, 2000, 2500},
		EdgeProb:   0.1,
		MaxQubits:  16,
		QAOA:       qaoa.Options{Layers: 6, Rhobeg: 0.5, MaxIters: qaoa.IterationsFor(6)},
		Seed:       3,
	}
}

// Fig4Row is one node count's series values (absolute cut weights).
type Fig4Row struct {
	Nodes   int
	Random  float64 // random partition of the full graph
	Classic float64 // QAOA² with GW sub-solvers
	QAOA    float64 // QAOA² with QAOA sub-solvers
	Best    float64 // QAOA² picking the better per sub-graph
	Exact   float64 // QAOA² with brute-force sub-solvers: the leaf-optimum control
	GWFull  float64 // GW on the entire graph (30-slice average)
	// Bound is sdp.DualBound of GW-full's relaxation: no cut of the
	// graph exceeds it.
	Bound float64
	// SubGraphs and Levels record the QAOA² decomposition shape.
	SubGraphs int
	Levels    int
}

// RunFig4 executes the comparison, its rows across cores (fanOut).
// Deterministic for a fixed config.
func RunFig4(cfg Fig4Config) ([]Fig4Row, error) {
	if cfg.MaxQubits <= 1 {
		return nil, fmt.Errorf("experiments: MaxQubits must exceed 1")
	}
	rows := make([]Fig4Row, len(cfg.NodeCounts))
	if err := fanOut(len(rows), func(i int) (err error) {
		n := cfg.NodeCounts[i]
		seed := cfg.Seed ^ uint64(n)<<16
		g := graph.ErdosRenyi(n, cfg.EdgeProb, graph.Unweighted, rng.New(seed))
		rows[i], err = fig4Row(g, cfg, seed)
		return err
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// fig4Row runs every Fig. 4 series on one instance.
func fig4Row(g *graph.Graph, cfg Fig4Config, seed uint64) (Fig4Row, error) {
	n := g.N()
	qaoaLeaf := solver.QAOASolver{Opts: cfg.QAOA}
	gwLeaf := solver.GWSolver{} // also the merge: "in case of further iterations ... the classical solution is chosen"

	row := Fig4Row{Nodes: n}
	for _, series := range []struct {
		name string
		leaf solver.Solver
		cut  *float64
	}{
		{"QAOA", qaoaLeaf, &row.QAOA},
		{"Classic", gwLeaf, &row.Classic},
		{"Best", solver.BestOfSolver{Solvers: []solver.Solver{qaoaLeaf, gwLeaf}}, &row.Best},
		{"Exact", solver.ExactSolver{}, &row.Exact},
	} {
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits: cfg.MaxQubits, Solver: series.leaf, MergeSolver: gwLeaf, Seed: seed,
		})
		if err != nil {
			return row, fmt.Errorf("experiments: fig4 %s series n=%d: %w", series.name, n, err)
		}
		*series.cut = res.Cut.Value
		if series.cut == &row.QAOA {
			row.SubGraphs, row.Levels = res.SubGraphs, res.Levels
		}
	}

	gwFull, err := gw.Solve(g, sdp.Options{Seed: seed}, rng.New(seed^0xf1f1))
	if err != nil {
		return row, fmt.Errorf("experiments: fig4 GW-full n=%d: %w", n, err)
	}
	row.GWFull = gwFull.Average
	if row.Bound, err = sdp.DualBound(g, gwFull.Relaxation); err != nil {
		return row, fmt.Errorf("experiments: fig4 bound n=%d: %w", n, err)
	}

	row.Random = maxcut.RandomCut(g, 1, rng.New(seed^0x0dd0)).Value
	return row, nil
}

// RenderFig4 renders the series relative to the QAOA series, matching
// the paper's "Data is relative to the QAOA solution" normalization,
// and the QAOA series against the certified bound (every other
// series' cut/bound is its column times that one).
func RenderFig4(rows []Fig4Row) string {
	header := []string{"nodes", "Random", "Classic", "QAOA", "Best", "Exact", "GW", "QAOA/bound", "subgraphs", "levels"}
	var table [][]string
	for _, r := range rows {
		norm := r.QAOA
		if norm == 0 {
			norm = 1
		}
		table = append(table, []string{
			fmt.Sprintf("%d", r.Nodes),
			fmtF(r.Random / norm),
			fmtF(r.Classic / norm),
			fmtF(r.QAOA / norm),
			fmtF(r.Best / norm),
			fmtF(r.Exact / norm),
			fmtF(r.GWFull / norm),
			fmtF(r.QAOA / r.Bound),
			fmt.Sprintf("%d", r.SubGraphs),
			fmt.Sprintf("%d", r.Levels),
		})
	}
	return RenderTable("Fig4: MaxCut relative to the QAOA series", header, table)
}
