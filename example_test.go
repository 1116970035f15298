// Runnable godoc examples with pinned output — the testable twin of
// the examples/ directory. Every example uses exact solvers and
// integer-valued objectives so the pins hold bit-for-bit on all CI
// legs (asm and portable kernels, Z2-reduced and full engines, race).
package qaoa2_test

import (
	"fmt"
	"log"

	"qaoa2"
)

// Example mirrors examples/quickstart at CI scale: generate an
// instance, take the exact optimum as ground truth, then run the QAOA²
// divide-and-conquer with a device budget that forces partitioning.
func Example() {
	g := qaoa2.ErdosRenyi(14, 0.3, qaoa2.Unweighted, qaoa2.NewRand(42))
	exact, err := qaoa2.BruteForce(g)
	if err != nil {
		log.Fatal(err)
	}
	res, err := qaoa2.Solve(g, qaoa2.Options{
		MaxQubits:   8, // 14 nodes on an 8-qubit device: must divide
		Solver:      qaoa2.ExactSolver{},
		MergeSolver: qaoa2.ExactSolver{},
		Seed:        7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact optimum: %.0f\n", exact.Value)
	fmt.Printf("qaoa2 cut:     %.0f (%d sub-graphs, %d merge level)\n",
		res.Cut.Value, res.SubGraphs, res.Levels)
	// Output:
	// exact optimum: 17
	// qaoa2 cut:     17 (5 sub-graphs, 1 merge level)
}

// ExampleSolveProblem solves a maximum-weight independent set through
// the Ising plane: the problem compiles to a Hamiltonian, solves on
// the QAOA² stack, and decodes back with a feasibility verdict.
func ExampleSolveProblem() {
	// A 6-cycle with one chord; conflicting vertices cannot both be
	// picked. Vertex weights favour the even vertices.
	g := qaoa2.NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			log.Fatal(err)
		}
	}
	p, err := qaoa2.WeightedMIS(g, []float64{2, 1, 2, 1, 2, 1}, 0)
	if err != nil {
		log.Fatal(err)
	}
	_, asg, err := qaoa2.SolveProblem(p, qaoa2.Options{
		MaxQubits: 8,
		Solver:    qaoa2.ExactSolver{},
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("independent set: %v\n", asg.Selected)
	fmt.Printf("total weight:    %.0f\n", asg.Objective)
	fmt.Printf("feasible:        %v\n", asg.Feasible)
	// Output:
	// independent set: [0 2 4]
	// total weight:    6
	// feasible:        true
}

// ExampleNumberPartition splits a multiset into two halves of equal
// sum — the spin sign is the side each number lands on, and the
// objective is the imbalance |Σ s_i·a_i|.
func ExampleNumberPartition() {
	p, err := qaoa2.NumberPartition([]float64{4, 5, 6, 7, 8})
	if err != nil {
		log.Fatal(err)
	}
	_, asg, err := qaoa2.SolveProblem(p, qaoa2.Options{
		MaxQubits: 8,
		Solver:    qaoa2.ExactSolver{},
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	var left, right []float64
	for i, s := range asg.Spins {
		if s > 0 {
			left = append(left, p.Numbers[i])
		} else {
			right = append(right, p.Numbers[i])
		}
	}
	fmt.Printf("imbalance: %.0f\n", asg.Objective)
	fmt.Printf("sides:     %v | %v\n", left, right)
	// Output:
	// imbalance: 0
	// sides:     [4 5 6] | [7 8]
}
