// Quickstart: solve a small MaxCut instance three ways — exact brute
// force, simulated QAOA, and Goemans-Williamson — then run QAOA² with
// the run-time best-of policy, all through the public qaoa2 API.
package main

import (
	"fmt"
	"log"

	"qaoa2"
)

func main() {
	log.SetFlags(0)

	// A 14-node Erdős–Rényi instance, the paper's workload family.
	r := qaoa2.NewRand(42)
	g := qaoa2.ErdosRenyi(14, 0.3, qaoa2.UniformWeights, r)
	fmt.Printf("instance: %v\n\n", g)

	// Ground truth (graphs this small are exactly solvable).
	exact, err := qaoa2.BruteForce(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact optimum:      %.4f\n", exact.Value)

	// Simulated QAOA, paper-style: p layers, COBYLA with rhobeg, and the
	// best-amplitude decoding rule. Execution uses the default fused
	// diagonal-cost backend; pass Backend: qaoa2.DenseBackend{} for the
	// gate-walk reference.
	qres, err := qaoa2.SolveQAOA(g, qaoa2.QAOAOptions{
		Layers: 4,
		Rhobeg: 0.5,
	}, qaoa2.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QAOA (p=4):         %.4f  (⟨H_C⟩=%.4f, %d objective evals)\n",
		qres.Cut.Value, qres.Expectation, qres.Evaluations)

	// The dense backend synthesizes a gate-level circuit, so its result
	// additionally carries the synthesis report (depth, 2q-gate count).
	dres, err := qaoa2.SolveQAOA(g, qaoa2.QAOAOptions{
		Layers:  4,
		Rhobeg:  0.5,
		Backend: qaoa2.DenseBackend{},
	}, qaoa2.NewRand(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QAOA (dense):       %.4f  (ansatz depth %d, %d two-qubit gates)\n",
		dres.Cut.Value, dres.Report.Depth, dres.Report.TwoQubitGates)

	// Goemans-Williamson: SDP + 30 hyperplane slicings; the paper
	// compares against the sliced AVERAGE.
	gwres, err := qaoa2.SolveGW(g, qaoa2.GWOptions{}, qaoa2.NewRand(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GW average / best:  %.4f / %.4f  (SDP relaxation %.4f)\n",
		gwres.Average, gwres.Best.Value, gwres.Relaxation.Value)

	// QAOA² on a larger instance with the quantum-or-classical decision
	// made per sub-graph.
	big := qaoa2.ErdosRenyi(80, 0.1, qaoa2.Unweighted, qaoa2.NewRand(7))
	res, err := qaoa2.Solve(big, qaoa2.Options{
		MaxQubits: 10,
		Solver: qaoa2.BestOfSolver{Solvers: []qaoa2.SubSolver{
			qaoa2.QAOASolver{Opts: qaoa2.QAOAOptions{Layers: 2, MaxIters: 30}},
			qaoa2.GWSolver{},
		}},
		MergeSolver: qaoa2.GWSolver{},
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQAOA² on %v:\n", big)
	fmt.Printf("  %d sub-graphs, %d merge level(s), cut %.4f (intra %.4f + cross %.4f)\n",
		res.SubGraphs, res.Levels, res.Cut.Value, res.IntraCut, res.CrossCut)
}
