package experiments

import (
	"fmt"
	"slices"

	"qaoa2/internal/graph"
	"qaoa2/internal/qaoa"
)

// DefaultTable1Config is the laptop-scale stand-in for the paper's
// Table 1 block (node counts 30-33, edge probabilities 0.1/0.2): the
// node counts map to 13-16 so the simulation fits in megabytes instead
// of the 128 GiB a 33-qubit state needs (see DESIGN.md substitutions).
func DefaultTable1Config() GridConfig {
	return GridConfig{
		NodeCounts:       []int{13, 14, 15, 16},
		EdgeProbs:        []float64{0.1, 0.2},
		Layers:           []int{2, 3},
		Rhobegs:          []float64{0.1, 0.5},
		Weightings:       []graph.Weighting{graph.UniformWeights, graph.Unweighted},
		InstancesPerCell: 1,
		Shots:            qaoa.DefaultShots, // 4096, as in the paper
		DecodeShots:      qaoa.DefaultShots, // device-like decoding at reduced scale
		Seed:             2,
	}
}

// FullTable1Config pushes the qubit count as close to the paper's 30-33
// as a large-memory single node allows (17-20 qubits ≈ 16 MiB states;
// raise toward qsim.MaxQubits=26 on fat nodes). True 30-33 requires a
// distributed-memory statevector, which this reproduction does not
// model.
func FullTable1Config() GridConfig {
	return GridConfig{
		NodeCounts:       []int{17, 18, 19, 20},
		EdgeProbs:        []float64{0.1, 0.2},
		Layers:           []int{3, 4, 5, 6, 7, 8},
		Rhobegs:          []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Weightings:       []graph.Weighting{graph.UniformWeights, graph.Unweighted},
		InstancesPerCell: 1,
		Shots:            qaoa.DefaultShots,
		Seed:             2,
	}
}

// Table1Row mirrors one row block of the paper's Table 1.
type Table1Row struct {
	Nodes     int
	Weighted  bool
	WinProps  []float64 // per edge probability: P[QAOA > GW]
	NearProps []float64 // per edge probability: P[QAOA in [95,100)% of GW]
}

// Table1Rows aggregates a grid result into the paper's Table 1 layout:
// each row holds the Fig. 3(a) and 3(b) cells of one node count and
// weighting.
func Table1Rows(gr *GridResult) []Table1Row {
	weightings := []graph.Weighting{graph.UniformWeights, graph.Unweighted}
	var wins, nears [2][][]float64
	for k, w := range weightings {
		wins[k] = gr.CellProportions(w, GridRecord.QAOAWins)
		nears[k] = gr.CellProportions(w, GridRecord.QAOANear)
	}
	var rows []Table1Row
	for i, n := range gr.Config.NodeCounts {
		for k, w := range weightings {
			rows = append(rows, Table1Row{Nodes: n, Weighted: w == graph.UniformWeights,
				WinProps: wins[k][i], NearProps: nears[k][i]})
		}
	}
	return rows
}

// RenderTable1 renders the two stacked blocks of the paper's Table 1.
func RenderTable1(gr *GridResult) string {
	header := append([]string{"nodes", "weighted"}, labels("p=%.1f", gr.Config.EdgeProbs)...)
	var winRows, nearRows [][]string
	for _, r := range Table1Rows(gr) {
		weighted := "no"
		if r.Weighted {
			weighted = "yes"
		}
		row := []string{fmt.Sprintf("%d", r.Nodes), weighted}
		winRows = append(winRows, slices.Concat(row, labels("%.3f", r.WinProps)))
		nearRows = append(nearRows, slices.Concat(row, labels("%.3f", r.NearProps)))
	}
	return RenderTable("Table1 (top): P[QAOA > GW]", header, winRows) + "\n" +
		RenderTable("Table1 (bottom): P[QAOA in [95,100)% of GW]", header, nearRows)
}
