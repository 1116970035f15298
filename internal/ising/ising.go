// Package ising generalizes the repository's MaxCut-only workload to a
// full Ising/QUBO plane. A Hamiltonian holds quadratic couplings J_ij,
// linear fields h_i and a constant offset over spin variables s ∈ {±1}^n,
//
//	E(s) = Σ_{i<j} J_ij s_i s_j + Σ_i h_i s_i + offset,
//
// always as a MINIMIZATION objective. The package provides exact
// QUBO↔Ising conversion, first-class constructors for classic problems
// (weighted maximum independent set, minimum vertex cover, number
// partitioning), and an exact ancilla reduction to MaxCut so every layer above the device —
// partitioning, QAOA² merging, the solve daemon, checkpoints, the
// fleet — runs Ising workloads on unchanged plumbing. The reduction is
// the only way a Hamiltonian executes: internal/qaoa2.SolveIsing and
// the solve daemon both solve ToMaxCut's graph and decode its cut with
// DecodeMaxCutSpins, so no solver or backend knows this package.
//
// Spin/bit convention (shared with the rest of the repository, see
// graph.SpinsFromBits): bit q of a basis index is 0 for s_q = +1 and
// 1 for s_q = −1; QUBO variables map as x_i = (1 − s_i)/2, so x_i = 1
// means "selected" and corresponds to bit 1.
//
// The Z2 spin-flip symmetry E(s) = E(−s) holds exactly when every
// field h_i is zero. The reduction graph is always
// flip-symmetric — a cut is — so the fused backend's Z2-reduced engine
// runs every reduced Hamiltonian exactly, fields or not; the fields
// live on the ancilla's edges.
package ising

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
)

// Coupling is one quadratic term J_ij s_i s_j with I < J.
type Coupling struct {
	I, J int
	W    float64
}

// Hamiltonian is an Ising minimization objective over n spins.
// The zero-cost way to build one is New followed by AddCoupling /
// AddField / AddOffset; problem constructors (WeightedMIS, ...)
// and QUBO.ToIsing build common shapes.
type Hamiltonian struct {
	n         int
	couplings pairs
	fields    []float64
	offset    float64
}

// pairs accumulates quadratic terms: (i,j) and (j,i) merge into one
// I < J term, kept in first-seen order.
type pairs struct {
	terms []Coupling
	index map[[2]int]int // (i,j) → terms slot
}

// add accumulates w onto the (i,j) term; i ≠ j is the caller's check.
func (p *pairs) add(i, j int, w float64) {
	if i > j {
		i, j = j, i
	}
	key := [2]int{i, j}
	if slot, ok := p.index[key]; ok {
		p.terms[slot].W += w
		return
	}
	if p.index == nil {
		p.index = make(map[[2]int]int)
	}
	p.index[key] = len(p.terms)
	p.terms = append(p.terms, Coupling{I: i, J: j, W: w})
}

// New returns an empty Hamiltonian over n spins (E ≡ 0).
func New(n int) *Hamiltonian {
	if n < 0 {
		n = 0
	}
	return &Hamiltonian{n: n, fields: make([]float64, n)}
}

// N returns the number of spin variables.
func (h *Hamiltonian) N() int { return h.n }

// Offset returns the constant term.
func (h *Hamiltonian) Offset() float64 { return h.offset }

// AddCoupling accumulates J_ij += w. Duplicate (i,j) pairs merge into
// one term regardless of order; self-couplings are rejected (s_i² = 1,
// fold them into the offset instead).
func (h *Hamiltonian) AddCoupling(i, j int, w float64) error {
	if i == j {
		return fmt.Errorf("ising: self-coupling on spin %d (s_i^2 = 1; add %g to the offset instead)", i, w)
	}
	if i < 0 || j < 0 || i >= h.n || j >= h.n {
		return fmt.Errorf("ising: coupling (%d,%d) outside 0..%d", i, j, h.n-1)
	}
	h.couplings.add(i, j, w)
	return nil
}

// AddField accumulates h_i += w.
func (h *Hamiltonian) AddField(i int, w float64) error {
	if i < 0 || i >= h.n {
		return fmt.Errorf("ising: field on spin %d outside 0..%d", i, h.n-1)
	}
	h.fields[i] += w
	return nil
}

// AddOffset accumulates the constant term.
func (h *Hamiltonian) AddOffset(c float64) { h.offset += c }

// Energy evaluates E(s) for a full ±1 assignment.
func (h *Hamiltonian) Energy(spins []int8) float64 {
	if len(spins) != h.n {
		panic(fmt.Sprintf("ising: %d spins for %d variables", len(spins), h.n))
	}
	e := h.offset
	for _, c := range h.couplings.terms {
		e += c.W * float64(spins[c.I]) * float64(spins[c.J])
	}
	for i, f := range h.fields {
		if f != 0 {
			e += f * float64(spins[i])
		}
	}
	return e
}

// EnergyBits evaluates E at a bit assignment (bit 0 → s = +1, bit 1 →
// s = −1, the repository-wide convention).
func (h *Hamiltonian) EnergyBits(bits []uint8) float64 {
	return h.Energy(graph.SpinsFromBits(bits))
}

// GroundState brute-forces the minimum-energy assignment — the exact
// reference the tests check solvers against. n must be at most
// MaxExactSpins.
func (h *Hamiltonian) GroundState() ([]int8, float64, error) {
	if h.n > MaxExactSpins {
		return nil, 0, fmt.Errorf("ising: %d spins exceeds exact-solver cap of %d", h.n, MaxExactSpins)
	}
	if h.n == 0 {
		return []int8{}, h.offset, nil
	}
	best := uint64(0)
	bestE := math.Inf(1)
	size := uint64(1) << uint(h.n)
	bits := make([]uint8, h.n)
	for x := uint64(0); x < size; x++ {
		for q := 0; q < h.n; q++ {
			bits[q] = uint8(x >> uint(q) & 1)
		}
		e := h.EnergyBits(bits)
		if e < bestE {
			bestE, best = e, x
		}
	}
	spins := make([]int8, h.n)
	for q := 0; q < h.n; q++ {
		if best>>uint(q)&1 == 0 {
			spins[q] = 1
		} else {
			spins[q] = -1
		}
	}
	return spins, bestE, nil
}

// MaxExactSpins caps GroundState's brute force (2^26 evaluations, a
// few seconds — same spirit as maxcut.MaxExactNodes).
const MaxExactSpins = 26

// ToMaxCut reduces the Hamiltonian to an equivalent MaxCut instance on
// N()+1 nodes: couplings become edges w_ij = J_ij and each nonzero
// field becomes an edge w_{i,a} = h_i to the extra ancilla node
// a = N() (exploiting h_i s_i = h_i s_i s_a once s_a is pinned to +1).
// For any ±1 assignment with s_a = +1,
//
//	E(s) = offset + W − 2·cut(s),  W = Σ J_ij + Σ h_i,
//
// so minimizing E is exactly maximizing the cut, and MaxCut's global
// spin-flip symmetry lets a solver pin s_a for free. DecodeMaxCutSpins
// inverts the reduction. This is the bridge that runs field-carrying
// Hamiltonians through every MaxCut-shaped layer (partitioning, QAOA²
// merge, serve, fleet) with zero changes there. The graph is built in
// one pass over the terms (graph.FromEdges), so the reduction is linear
// in them however they crowd onto a node; a coupling or field whose
// accumulated weight is not finite fails with a *graph.RefusedError.
func (h *Hamiltonian) ToMaxCut() (*graph.Graph, error) {
	edges := make([]graph.Edge, 0, len(h.couplings.terms)+h.n)
	for _, c := range h.couplings.terms {
		if c.W != 0 {
			edges = append(edges, graph.Edge(c))
		}
	}
	for i, f := range h.fields {
		if f != 0 {
			edges = append(edges, graph.Edge{I: i, J: h.n, W: f})
		}
	}
	g, err := graph.FromEdges(h.n+1, edges, func(e graph.Edge) graph.Edge { return e })
	if err != nil {
		return nil, fmt.Errorf("ising: reduction: %w", err)
	}
	return g, nil
}

// DecodeMaxCutSpins maps a cut of the ToMaxCut graph (N()+1 spins, the
// ancilla last) back to an assignment of the original variables: the
// global flip that pins the ancilla to +1, then the ancilla dropped.
// The returned slice is freshly allocated.
func (h *Hamiltonian) DecodeMaxCutSpins(cutSpins []int8) ([]int8, error) {
	if len(cutSpins) != h.n+1 {
		return nil, fmt.Errorf("ising: reduction decode got %d spins, want %d", len(cutSpins), h.n+1)
	}
	spins := make([]int8, h.n)
	flip := int8(1)
	if cutSpins[h.n] < 0 {
		flip = -1
	}
	for i := range spins {
		spins[i] = cutSpins[i] * flip
	}
	return spins, nil
}
