// Package rqaoa implements recursive QAOA (Bravyi, Kliesch, Koenig,
// Tang), the non-local QAOA variant the paper cites as numerically
// outperforming standard QAOA and "leverageable using QAOA²": at each
// step QAOA is run on the current graph, the edge with the strongest
// |⟨Z_i Z_j⟩| correlation is frozen into the constraint z_i = sign·z_j,
// and node i is eliminated by merging its edges into j (weights signed
// by the constraint). When the graph is small enough the remainder is
// solved exactly and the constraints are unwound; a step whose QAOA cut
// is certified optimal (qaoa.Result.Optimal) ends the recursion early,
// since no later elimination can beat a maximum cut of the current
// graph.
package rqaoa

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
	"qaoa2/internal/maxcut"
	"qaoa2/internal/qaoa"
	"qaoa2/internal/rng"
)

// Options configures Solve.
type Options struct {
	// Cutoff is the node count at which the recursion stops and the
	// residual instance is brute-forced (default 8).
	Cutoff int
	// QAOA configures the per-step variational run (Shots is forced to 0:
	// correlations need the exact state).
	QAOA qaoa.Options
}

// Result reports an RQAOA run.
type Result struct {
	Cut          maxcut.Cut
	Eliminations int // variables frozen by correlation rounding before the exact or certified finish
}

// constraint records z_eliminated = sign · z_keeper.
type constraint struct {
	eliminated, keeper int
	sign               int8
}

// Solve runs RQAOA on g.
func Solve(g *graph.Graph, opts Options, r *rng.Rand) (*Result, error) {
	if opts.Cutoff < 2 {
		opts.Cutoff = 8
	}
	if opts.Cutoff > maxcut.MaxExactNodes {
		return nil, fmt.Errorf("rqaoa: cutoff %d exceeds exact-solver limit %d", opts.Cutoff, maxcut.MaxExactNodes)
	}
	opts.QAOA.Shots = 0 // exact state needed for correlations

	n := g.N()
	if n == 0 {
		return &Result{Cut: maxcut.Cut{Spins: []int8{}, Value: 0}}, nil
	}

	// Working graph with live-node bookkeeping: each elimination builds
	// a new one, so g itself is never written. orig[i] maps the working
	// graph's node i to the original node id.
	work := g
	orig := make([]int, n)
	for i := range orig {
		orig[i] = i
	}
	var constraints []constraint
	var final []int8 // spins of work's nodes once known

	for work.N() > opts.Cutoff && work.M() > 0 {
		res, err := qaoa.Solve(work, opts.QAOA, r)
		if err != nil {
			return nil, err
		}
		if res.Optimal {
			// A maximum cut of the reduced graph: every later elimination
			// path ends in some assignment of this same graph, and its
			// constraints add the same constant to any of them, so none
			// can cut more. Unwind from it.
			final = res.Cut.Spins
			break
		}
		// Strongest-correlation edge.
		bestEdge := -1
		bestAbs := -1.0
		bestCorr := 0.0
		for idx, e := range work.Edges() {
			c := qaoa.ZZCorrelation(res.State, res.Layout, e.I, e.J)
			if a := math.Abs(c); a > bestAbs {
				bestAbs = a
				bestEdge = idx
				bestCorr = c
			}
		}
		if bestEdge < 0 {
			break
		}
		e := work.Edges()[bestEdge]
		sign := int8(1)
		if bestCorr < 0 {
			sign = -1
		}
		constraints = append(constraints, constraint{
			eliminated: orig[e.I],
			keeper:     orig[e.J],
			sign:       sign,
		})
		if work, orig, err = eliminate(work, orig, e.I, e.J, sign); err != nil {
			return nil, err
		}
	}

	if final == nil {
		// Exact solve of the residual.
		residual, err := maxcut.BruteForce(work)
		if err != nil {
			return nil, err
		}
		final = residual.Spins
	}

	// Unwind: seed spins of surviving nodes, then apply constraints in
	// reverse elimination order.
	spins := make([]int8, n)
	for i, o := range orig {
		spins[o] = final[i]
	}
	for k := len(constraints) - 1; k >= 0; k-- {
		c := constraints[k]
		spins[c.eliminated] = c.sign * spins[c.keeper]
	}
	cut := maxcut.Cut{Spins: spins, Value: g.CutValue(spins)}
	return &Result{Cut: cut, Eliminations: len(constraints)}, nil
}

// eliminate merges node u into node v under z_u = sign·z_v: every edge
// (u,k), k≠v becomes an increment of sign·w on edge (v,k); the (u,v)
// edge itself becomes a constant and is dropped (Solve re-evaluates the
// final cut on the original graph, so constants need no tracking).
func eliminate(g *graph.Graph, orig []int, u, v int, sign int8) (*graph.Graph, []int, error) {
	n := g.N()
	// Renumber: drop u, keep order.
	newIdx := make([]int, n)
	j := 0
	for i := 0; i < n; i++ {
		if i == u {
			newIdx[i] = -1
			continue
		}
		newIdx[i] = j
		j++
	}
	out := graph.New(n - 1)
	for _, e := range g.Edges() {
		a, b := e.I, e.J
		w := e.W
		switch {
		case a == u && b == v, a == v && b == u:
			continue // constrained edge: constant contribution
		case a == u:
			a = v
			w *= float64(sign)
		case b == u:
			b = v
			w *= float64(sign)
		}
		na, nb := newIdx[a], newIdx[b]
		if na == nb {
			continue // merged into a self-loop: constant
		}
		// Merged weights sum in a new order, and their absolute values
		// can round past float64's range where g's did not.
		if err := out.AddEdge(na, nb, w); err != nil {
			return nil, nil, fmt.Errorf("rqaoa: eliminating node %d: %w", orig[u], err)
		}
	}
	newOrig := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != u {
			newOrig = append(newOrig, orig[i])
		}
	}
	return out, newOrig, nil
}
