// Large graph: the paper's Fig. 4 scenario at interactive scale. A
// 300-node unweighted G(n, 0.1) instance is decomposed by greedy
// modularity into 12-qubit sub-graphs, solved under three sub-solver
// policies (all-QAOA, all-GW, best-of), and compared against GW on the
// whole graph and a random partition — relative to the QAOA series
// exactly as the paper plots it.
package main

import (
	"fmt"
	"log"

	"qaoa2"
)

func main() {
	log.SetFlags(0)

	const (
		nodes     = 300
		prob      = 0.1
		maxQubits = 12
		seed      = 5
	)
	g := qaoa2.ErdosRenyi(nodes, prob, qaoa2.Unweighted, qaoa2.NewRand(seed))
	fmt.Printf("instance: %v, qubit budget %d\n\n", g, maxQubits)

	qaoaLeaf := qaoa2.QAOASolver{Opts: qaoa2.QAOAOptions{Layers: 2, MaxIters: 30}}
	gwLeaf := qaoa2.GWSolver{}

	run := func(name string, solver qaoa2.SubSolver) float64 {
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits:   maxQubits,
			Solver:      solver,
			MergeSolver: gwLeaf, // further iterations use the classical solution, as in the paper
			Seed:        seed,
		})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-8s cut %.1f  (%d sub-graphs, %d level(s))\n",
			name, res.Cut.Value, res.SubGraphs, res.Levels)
		return res.Cut.Value
	}

	qaoaVal := run("QAOA", qaoaLeaf)
	run("Classic", gwLeaf)
	run("Best", qaoa2.BestOfSolver{Solvers: []qaoa2.SubSolver{qaoaLeaf, gwLeaf}})

	gwFull, err := qaoa2.SolveGW(g, qaoa2.GWOptions{}, qaoa2.NewRand(seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s cut %.1f  (full graph, SDP relaxation %.1f)\n", "GW", gwFull.Average, gwFull.Relaxation.Value)

	random := qaoa2.RandomCut(g, 1, qaoa2.NewRand(seed))
	fmt.Printf("%-8s cut %.1f\n", "Random", random.Value)

	fmt.Printf("\nrelative to the QAOA series (paper's normalization):\n")
	fmt.Printf("  Random %.3f | QAOA 1.000 | GW-full %.3f\n",
		random.Value/qaoaVal, gwFull.Average/qaoaVal)
}
