// The solver-registry demo: one instance, three dispatch policies, all
// selected by registry NAME — the same names `qaoa2 -solver`, `workflow
// -submit`, and POST /v1/solve accept — with per-solver attribution
// showing which member actually won each sub-graph.
//
//	go run ./examples/solver_portfolio
//
// It compares the paper's fixed policies (all-QAOA, all-GW) against its
// per-sub-graph choice "best" (run QAOA, then GW unless QAOA's cut is
// certified optimal, and keep the better — the paper's "Best" series).
// The attribution column comes from SubReport.Solver, which names the
// member that actually produced each kept cut.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"qaoa2"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solver_portfolio: ")

	const (
		nodes     = 60
		prob      = 0.15
		maxQubits = 10
		seed      = 11
	)
	g := qaoa2.ErdosRenyi(nodes, prob, qaoa2.Unweighted, qaoa2.NewRand(seed))
	fmt.Printf("instance %v, qubit budget %d\n\n", g, maxQubits)
	fmt.Printf("%-12s %10s %8s   %s\n", "solver", "cut", "wall", "per-sub attribution")

	merge, err := qaoa2.BuildSolver(qaoa2.SolverSpec{Name: "gw", Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"qaoa", "gw", "best"} {
		sub, err := qaoa2.BuildSolver(qaoa2.SolverSpec{Name: name, Layers: 2, Seed: seed})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		start := time.Now()
		res, err := qaoa2.Solve(g, qaoa2.Options{
			MaxQubits:   maxQubits,
			Solver:      sub,
			MergeSolver: merge,
			Seed:        seed,
		})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-12s %10.3f %8s   %s\n",
			name, res.Cut.Value, time.Since(start).Round(time.Millisecond),
			winners(res.SubReports))
	}

	fmt.Println("\nevery name above is a registry entry (internal/solver); the full set:")
	fmt.Printf("  %v\n", qaoa2.SolverNames())
}

// winners aggregates SubReport.Solver — the ACTUAL producer of each
// kept cut, which for best exposes the per-sub-graph
// quantum-vs-classical decision.
func winners(reports []qaoa2.SubReport) string {
	count := map[string]int{}
	for _, r := range reports {
		count[r.Solver]++
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s won %d", n, count[n])
	}
	return out
}
