package qaoa2

import (
	"fmt"

	"qaoa2/internal/ising"
)

// IsingResult reports a SolveIsing run.
type IsingResult struct {
	// Spins is the decoded assignment of the Hamiltonian's variables
	// and Energy its E value — the minimized objective.
	Spins  []int8
	Energy float64
	// MaxCut is the QAOA² result on the reduction graph — sub-reports,
	// merge levels and solver attribution carry through unchanged (nil
	// only for a zero-spin Hamiltonian).
	MaxCut *Result
}

// SolveIsing minimizes an Ising Hamiltonian through the QAOA² stack.
// There is one route: the Hamiltonian becomes an equivalent MaxCut
// instance on N+1 nodes (ising.ToMaxCut), runs through the ordinary
// Solve — partitioning, parallel sub-solves, merging, checkpoints,
// every option and every registry solver, gw included, applies — and
// the cut decodes back to spins (ising.DecodeMaxCutSpins). The solve
// daemon runs the identical reduction, so a library call and a daemon
// job with the same options return the same spins. Energy is always
// recomputed from the Hamiltonian itself, never from the cut value.
func SolveIsing(h *ising.Hamiltonian, opts Options) (*IsingResult, error) {
	if h == nil {
		return nil, fmt.Errorf("qaoa2: nil Hamiltonian")
	}
	if h.N() == 0 {
		return &IsingResult{Spins: []int8{}, Energy: h.Offset()}, nil
	}
	g, err := h.ToMaxCut()
	if err != nil {
		return nil, fmt.Errorf("qaoa2: ising reduction: %w", err)
	}
	res, err := Solve(g, opts)
	if err != nil {
		return nil, err
	}
	spins, err := h.DecodeMaxCutSpins(res.Cut.Spins)
	if err != nil {
		return nil, err
	}
	return &IsingResult{
		Spins:  spins,
		Energy: h.Energy(spins),
		MaxCut: res,
	}, nil
}

// SolveProblem minimizes a problem's Hamiltonian (SolveIsing) and
// decodes the result at the problem level: objective, feasibility
// verdict, selected set.
func SolveProblem(p *ising.Problem, opts Options) (*IsingResult, ising.Assignment, error) {
	if p == nil || p.H == nil {
		return nil, ising.Assignment{}, fmt.Errorf("qaoa2: nil problem")
	}
	res, err := SolveIsing(p.H, opts)
	if err != nil {
		return nil, ising.Assignment{}, err
	}
	a, err := p.Decode(res.Spins)
	if err != nil {
		return nil, ising.Assignment{}, err
	}
	return res, a, nil
}
