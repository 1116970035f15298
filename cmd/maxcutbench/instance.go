package main

import (
	"fmt"
	"io"
	"time"

	"qaoa2/internal/instances"
	"qaoa2/internal/qaoa2"
	"qaoa2/internal/solver"
)

// runInstance solves one cataloged benchmark instance (an embedded
// fixture or a downloaded Gset file in dir) through the QAOA² stack
// and reports the cut against the catalog's best-known value.
func runInstance(w io.Writer, name, dir, subName, mergeName string, maxQubits, layers int, seed uint64) error {
	in, ok := instances.Lookup(name)
	if !ok {
		names := ""
		for i, c := range instances.Catalog() {
			if i > 0 {
				names += ", "
			}
			names += c.Name
		}
		return fmt.Errorf("unknown instance %q (catalog: %s)", name, names)
	}
	g, err := instances.Load(in, dir)
	if err != nil {
		return err
	}
	sub, err := solver.Build(solver.Spec{Name: subName, Layers: layers, Seed: seed})
	if err != nil {
		return err
	}
	merge, err := solver.Build(solver.Spec{Name: mergeName, Layers: layers, Seed: seed})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := qaoa2.Solve(g, qaoa2.Options{MaxQubits: maxQubits, Solver: sub, MergeSolver: merge, Seed: seed})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	bound := "best known"
	if in.Exact {
		bound = "optimum"
	}
	fmt.Fprintf(w, "instance    %s (%d nodes, %d edges, %s weights)\n", in.Name, in.Nodes, in.Edges, in.Weights)
	fmt.Fprintf(w, "solver      %s / %s  (maxQubits %d, layers %d, seed %d)\n", subName, mergeName, maxQubits, layers, seed)
	fmt.Fprintf(w, "cut         %g\n", res.Cut.Value)
	fmt.Fprintf(w, "%-11s %g\n", bound, in.BestKnown)
	fmt.Fprintf(w, "ratio       %.4f\n", res.Cut.Value/in.BestKnown)
	fmt.Fprintf(w, "subgraphs   %d (merge levels %d)\n", res.SubGraphs, res.Levels)
	fmt.Fprintf(w, "wall        %s\n", wall.Round(time.Millisecond))
	return nil
}
