// Ising/QUBO plane demo: encode classic problems as Ising
// Hamiltonians, solve them through the QAOA² stack (each one as its
// exact ancilla MaxCut reduction, whatever its size or solver), and
// decode the spins back into problem-level answers with feasibility
// verdicts — all through the public qaoa2 API.
//
// The same problems travel over HTTP: POST /v1/solve with a "problem"
// field instead of "graph" and the daemon runs the identical
// reduction, attaching the decoded answer to the job result (see
// DESIGN.md "The Ising/QUBO plane").
package main

import (
	"fmt"
	"log"

	"qaoa2"
)

func main() {
	log.SetFlags(0)

	// 1. Maximum-weight independent set on a conflict graph. The
	// penalty encoding can produce infeasible bit strings; Decode
	// reports feasibility rather than hiding it.
	g := qaoa2.ErdosRenyi(12, 0.3, qaoa2.Unweighted, qaoa2.NewRand(3))
	weights := make([]float64, 12)
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	mis, err := qaoa2.WeightedMIS(g, weights, 0)
	if err != nil {
		log.Fatal(err)
	}
	_, asg, err := qaoa2.SolveProblem(mis, qaoa2.Options{
		MaxQubits: 14,
		Solver: qaoa2.BestOfSolver{Solvers: []qaoa2.SubSolver{
			qaoa2.QAOASolver{Opts: qaoa2.QAOAOptions{Layers: 2, MaxIters: 40}},
			qaoa2.AnnealSolver{},
		}},
		Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("weighted MIS on %v:\n", g)
	fmt.Printf("  selected %v, weight %.0f, feasible %v\n\n",
		asg.Selected, asg.Objective, asg.Feasible)

	// 2. A raw Hamiltonian with local fields. Each field becomes an
	// edge to one ancilla node, so the 20 spins are a 21-node MaxCut
	// instance; over a 10-qubit budget it runs through the full
	// divide-and-conquer. The energy is recomputed exactly from the
	// Hamiltonian, never from intermediate cut values.
	h := qaoa2.NewIsing(20)
	r := qaoa2.NewRand(11)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if r.Float64() < 0.2 {
				if err := h.AddCoupling(i, j, r.Float64()*2-1); err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := h.AddField(i, r.Float64()-0.5); err != nil {
			log.Fatal(err)
		}
	}
	res, err := qaoa2.SolveIsing(h, qaoa2.Options{
		MaxQubits:   10,
		Solver:      qaoa2.GWSolver{},
		MergeSolver: qaoa2.GWSolver{},
		Seed:        11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random field Hamiltonian (20 spins, 10-qubit device):\n")
	fmt.Printf("  energy %.4f via reduction (%d sub-graphs)\n", res.Energy, res.MaxCut.SubGraphs)
	// The classical baseline is the same route with one annealing leaf:
	// a classical solver has no qubit budget, so the whole 21-node
	// reduction fits.
	anneal, err := qaoa2.SolveIsing(h, qaoa2.Options{
		MaxQubits: h.N() + 1,
		Solver:    qaoa2.AnnealSolver{},
		Seed:      11,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  annealing baseline %.4f\n\n", anneal.Energy)

	// 3. QUBO round trip: build in {0,1} variables, solve in ±1 spins.
	q := qaoa2.NewQUBO(6)
	for i := 0; i < 6; i++ {
		if err := q.AddLinear(i, -1); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := q.AddQuad(i, i+1, 2); err != nil {
			log.Fatal(err)
		}
	}
	p := qaoa2.ProblemFromHamiltonian(q.ToIsing())
	_, qasg, err := qaoa2.SolveProblem(p, qaoa2.Options{
		MaxQubits: 8,
		Solver:    qaoa2.ExactSolver{},
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QUBO chain (reward picks, punish neighbors):\n")
	fmt.Printf("  x = %v, value %.0f\n", qasg.X, q.Value(qasg.X))
}
