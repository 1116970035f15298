package ising

import (
	"fmt"
	"math"

	"qaoa2/internal/graph"
)

// Problem kinds, the registry of first-class constructors. The strings
// are wire-stable: the serve layer serializes them into job requests
// and folds them into fingerprint job keys.
const (
	KindIsing           = "ising"
	KindMIS             = "mis"
	KindVertexCover     = "vertex-cover"
	KindNumberPartition = "number-partition"
)

// Problem binds a Hamiltonian to the problem it encodes, keeping the
// original data (conflict graph, weights, numbers) so a spin assignment
// decodes back to a problem-level answer with a feasibility verdict —
// penalty encodings can produce infeasible bit strings, and silently
// reporting their raw energy as "the answer" would hide that.
type Problem struct {
	// Kind is one of the Kind* constants.
	Kind string
	// H is the minimization Hamiltonian encoding the problem.
	H *Hamiltonian
	// Graph is the conflict graph for MIS and vertex cover, nil
	// otherwise.
	Graph *graph.Graph
	// Weights are per-vertex weights for weighted MIS (nil = unweighted).
	Weights []float64
	// Numbers is the number-partitioning multiset.
	Numbers []float64
	// Penalty is the constraint penalty used by MIS / vertex cover.
	Penalty float64
}

// Assignment is a decoded problem-level solution.
type Assignment struct {
	// Spins is the ±1 assignment (the Hamiltonian's variables).
	Spins []int8
	// X is the QUBO view, x_i = (1 − s_i)/2.
	X []uint8
	// Energy is E(Spins) under the problem Hamiltonian.
	Energy float64
	// Objective is the problem-level objective: cut weight (MaxCut),
	// selected weight (MIS), cover size (vertex cover), |Σ ± a_i|
	// (number partitioning), Energy itself (raw Ising).
	Objective float64
	// Feasible reports whether the assignment satisfies the problem's
	// constraints (always true for unconstrained kinds).
	Feasible bool
	// Selected lists the chosen vertices (x_i = 1) for selection
	// problems (MIS, vertex cover), nil otherwise.
	Selected []int
}

// WeightedMIS encodes maximum-weight independent set on the conflict
// graph g: maximize Σ w_i x_i subject to no two selected vertices being
// adjacent, as the QUBO minimization −Σ w_i x_i + P Σ_{(i,j)∈E} x_i x_j.
// weights is per-vertex (nil = all ones); penalty P must exceed every
// vertex weight for the encodings' minima to coincide — 0 selects
// 2·max w_i + 1, and non-positive explicit penalties are rejected.
// Edge weights of g are ignored (only adjacency matters).
func WeightedMIS(g *graph.Graph, weights []float64, penalty float64) (*Problem, error) {
	if g == nil {
		return nil, fmt.Errorf("ising: nil graph")
	}
	n := g.N()
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != n {
		return nil, fmt.Errorf("ising: %d MIS weights for %d vertices", len(weights), n)
	}
	maxW := 0.0
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("ising: MIS weight of vertex %d is %g, want > 0", i, w)
		}
		if w > maxW {
			maxW = w
		}
	}
	if penalty == 0 {
		penalty = 2*maxW + 1
	}
	if penalty <= maxW {
		return nil, fmt.Errorf("ising: MIS penalty %g must exceed the largest vertex weight %g", penalty, maxW)
	}
	q := NewQUBO(n)
	for i, w := range weights {
		q.AddLinear(i, -w)
	}
	for _, e := range g.Edges() {
		if err := q.AddQuad(e.I, e.J, penalty); err != nil {
			return nil, err
		}
	}
	return &Problem{Kind: KindMIS, H: q.ToIsing(), Graph: g, Weights: weights, Penalty: penalty}, nil
}

// MinVertexCover encodes minimum vertex cover on g: minimize Σ x_i
// subject to every edge having a selected endpoint, as the QUBO
// Σ x_i + P Σ_{(i,j)∈E} (1 − x_i)(1 − x_j). penalty P must exceed 1
// (the cost of adding one vertex); 0 selects the standard P = 2.
func MinVertexCover(g *graph.Graph, penalty float64) (*Problem, error) {
	if g == nil {
		return nil, fmt.Errorf("ising: nil graph")
	}
	if penalty == 0 {
		penalty = 2
	}
	if penalty <= 1 {
		return nil, fmt.Errorf("ising: vertex-cover penalty %g must exceed 1", penalty)
	}
	q := NewQUBO(g.N())
	for i := 0; i < g.N(); i++ {
		q.AddLinear(i, 1)
	}
	for _, e := range g.Edges() {
		// P(1 − x_i)(1 − x_j) = P − P x_i − P x_j + P x_i x_j
		q.AddOffset(penalty)
		q.AddLinear(e.I, -penalty)
		q.AddLinear(e.J, -penalty)
		if err := q.AddQuad(e.I, e.J, penalty); err != nil {
			return nil, err
		}
	}
	return &Problem{Kind: KindVertexCover, H: q.ToIsing(), Graph: g, Penalty: penalty}, nil
}

// NumberPartition encodes two-way number partitioning of nums:
// E(s) = (Σ a_i s_i)² = Σ a_i² + 2 Σ_{i<j} a_i a_j s_i s_j, minimized
// at the most balanced split. No fields — the encoding is Z2-symmetric
// (swapping the two sides changes nothing), so its reduction leaves the
// ancilla isolated.
func NumberPartition(nums []float64) (*Problem, error) {
	if len(nums) == 0 {
		return nil, fmt.Errorf("ising: number partitioning needs at least one number")
	}
	h := New(len(nums))
	sumSq := 0.0
	for i, a := range nums {
		sumSq += a * a
		for j := i + 1; j < len(nums); j++ {
			if w := 2 * a * nums[j]; w != 0 {
				h.AddCoupling(i, j, w)
			}
		}
	}
	h.AddOffset(sumSq)
	return &Problem{Kind: KindNumberPartition, H: h, Numbers: append([]float64(nil), nums...)}, nil
}

// FromHamiltonian wraps a raw Hamiltonian as a Problem (kind "ising"):
// the objective is the energy itself and every assignment is feasible.
func FromHamiltonian(h *Hamiltonian) *Problem {
	return &Problem{Kind: KindIsing, H: h}
}

// Decode maps a ±1 assignment of the Hamiltonian's variables back to a
// problem-level Assignment: QUBO bits, energy, the problem objective,
// a feasibility verdict against the original constraints, and the
// selected vertex set for selection problems.
func (p *Problem) Decode(spins []int8) (Assignment, error) {
	if len(spins) != p.H.N() {
		return Assignment{}, fmt.Errorf("ising: decoding %d spins for %d variables", len(spins), p.H.N())
	}
	a := Assignment{
		Spins:    append([]int8(nil), spins...),
		X:        graph.BitsFromSpins(spins),
		Energy:   p.H.Energy(spins),
		Feasible: true,
	}
	switch p.Kind {
	case KindMIS:
		for i, x := range a.X {
			if x == 1 {
				a.Selected = append(a.Selected, i)
				if p.Weights != nil {
					a.Objective += p.Weights[i]
				} else {
					a.Objective++
				}
			}
		}
		for _, e := range p.Graph.Edges() {
			if a.X[e.I] == 1 && a.X[e.J] == 1 {
				a.Feasible = false
				break
			}
		}
	case KindVertexCover:
		for i, x := range a.X {
			if x == 1 {
				a.Selected = append(a.Selected, i)
				a.Objective++
			}
		}
		for _, e := range p.Graph.Edges() {
			if a.X[e.I] == 0 && a.X[e.J] == 0 {
				a.Feasible = false
				break
			}
		}
	case KindNumberPartition:
		sum := 0.0
		for i, n := range p.Numbers {
			sum += n * float64(spins[i])
		}
		a.Objective = math.Abs(sum)
	case KindIsing:
		a.Objective = a.Energy
	default:
		return Assignment{}, fmt.Errorf("ising: unknown problem kind %q", p.Kind)
	}
	return a, nil
}
