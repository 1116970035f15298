package ising

import (
	"math"

	"qaoa2/internal/rng"
)

// Solution is a spin assignment with its energy — the Ising
// counterpart of maxcut.Cut, flowing through the solver plane's
// IsingSolver interface.
type Solution struct {
	Spins  []int8
	Energy float64
}

// AnnealOptions configures Anneal, mirroring maxcut.AnnealOptions.
type AnnealOptions struct {
	Sweeps    int     // full sweeps over the spins (default 200)
	TempStart float64 // initial temperature (default: max |coupling|+|field| degree)
	TempEnd   float64 // final temperature (default 1e-3)
}

// Anneal minimizes E(s) with single-spin-flip Metropolis annealing on a
// geometric temperature schedule — the direct-Ising counterpart of
// maxcut.SimulatedAnnealing, so field-carrying Hamiltonians get the
// same classical baseline without the ancilla reduction.
func Anneal(h *Hamiltonian, opts AnnealOptions, r *rng.Rand) Solution {
	n := h.N()
	if n == 0 {
		return Solution{Spins: []int8{}, Energy: h.Offset()}
	}
	if opts.Sweeps <= 0 {
		opts.Sweeps = 200
	}
	// Adjacency over couplings, for O(degree) flip deltas.
	type half struct {
		to int
		w  float64
	}
	adj := make([][]half, n)
	for _, c := range h.couplings.terms {
		adj[c.I] = append(adj[c.I], half{c.J, c.W})
		adj[c.J] = append(adj[c.J], half{c.I, c.W})
	}
	if opts.TempStart <= 0 {
		for v := 0; v < n; v++ {
			d := math.Abs(h.fields[v])
			for _, e := range adj[v] {
				d += math.Abs(e.w)
			}
			if d > opts.TempStart {
				opts.TempStart = d
			}
		}
		if opts.TempStart == 0 {
			opts.TempStart = 1
		}
	}
	if opts.TempEnd <= 0 {
		opts.TempEnd = 1e-3
	}
	spins := make([]int8, n)
	for i := range spins {
		if r.Bool() {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	cur := h.Energy(spins)
	best := Solution{Spins: append([]int8(nil), spins...), Energy: cur}
	cool := math.Pow(opts.TempEnd/opts.TempStart, 1/float64(opts.Sweeps))
	temp := opts.TempStart
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for step := 0; step < n; step++ {
			v := r.Intn(n)
			// Flipping s_v changes E by −2 s_v (Σ_j J_vj s_j + h_v).
			local := h.fields[v]
			for _, e := range adj[v] {
				local += e.w * float64(spins[e.to])
			}
			delta := -2 * float64(spins[v]) * local
			if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
				spins[v] = -spins[v]
				cur += delta
				if cur < best.Energy {
					best.Energy = cur
					copy(best.Spins, spins)
				}
			}
		}
		temp *= cool
	}
	// Guard against drift accumulated over incremental deltas.
	best.Energy = h.Energy(best.Spins)
	return best
}
