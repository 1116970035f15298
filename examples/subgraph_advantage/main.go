// Subgraph advantage: a miniature of the paper's §4 knowledge-base
// construction. We sweep graph families and QAOA parameterizations,
// record where QAOA beats the GW average (Fig. 3's quantity), pick the
// best (layers, rhobeg) point, and train the logistic QAOA-vs-GW
// selector on the collected records' graph features — the run-time
// decision mechanism the SLURM workflow would consult, and the model
// the "ml-adaptive" solver ships.
package main

import (
	"fmt"
	"log"

	"qaoa2/internal/experiments"
	"qaoa2/internal/graph"
	"qaoa2/internal/rng"
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

	// The graph-features-only model: a fresh sub-graph has no
	// (layers, rhobeg) choice yet, so a model that also weighs those
	// cannot score it.
	model, acc, err := experiments.TrainSolverSelector(res.Records, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained selector hold-out accuracy: %.3f\n", acc)

	// Consult the selector the way a coordinator would (Fig. 2): should
	// this fresh sub-graph go to the quantum or the classical queue?
	probe := graph.ErdosRenyi(10, 0.1, graph.Unweighted, rng.New(99))
	if model.PredictQAOA(probe) {
		fmt.Println("fresh sparse sub-graph -> route to QAOA")
	} else {
		fmt.Println("fresh sparse sub-graph -> route to GW")
	}
}
