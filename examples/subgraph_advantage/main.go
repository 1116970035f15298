// Subgraph advantage: a miniature of the paper's §4 knowledge-base
// construction. We sweep graph families and QAOA parameterizations,
// record where QAOA beats the GW average (Fig. 3's quantity) and count
// the grid points QAOA won.
package main

import (
	"fmt"
	"log"

	"qaoa2/internal/experiments"
	"qaoa2/internal/graph"
)

func main() {
	log.SetFlags(0)

	cfg := experiments.GridConfig{
		NodeCounts:       []int{8, 10, 12},
		EdgeProbs:        []float64{0.1, 0.3, 0.5},
		Layers:           []int{2, 3},
		Rhobegs:          []float64{0.1, 0.5},
		Weightings:       []graph.Weighting{graph.Unweighted, graph.UniformWeights},
		InstancesPerCell: 1,
		Seed:             11,
	}
	fmt.Println("running the QAOA-vs-GW grid search (miniature Fig. 3)...")
	res, err := experiments.RunGrid(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderFig3(res))

	wins := 0
	for _, rec := range res.Records {
		if rec.QAOAWins() {
			wins++
		}
	}
	fmt.Printf("\nQAOA beat the GW average in %d/%d grid points\n", wins, len(res.Records))
}
