package qaoa2

import (
	"fmt"

	"qaoa2/internal/ising"
	"qaoa2/internal/rng"
	"qaoa2/internal/solver"
)

// IsingResult reports a SolveIsing run.
type IsingResult struct {
	// Spins is the decoded assignment of the Hamiltonian's variables
	// and Energy its E value — the minimized objective.
	Spins  []int8
	Energy float64
	// Direct reports the execution route: true when the Hamiltonian fit
	// the device and the configured solver minimized it natively; false
	// when it ran through the ancilla MaxCut reduction and the full
	// divide-and-conquer.
	Direct bool
	// Report is the solver attribution of a direct solve (the winning
	// inner member for composite strategies).
	Report solver.Report
	// MaxCut is the underlying QAOA² result of a reduction-path solve
	// (nil when Direct) — sub-reports, merge levels and attribution
	// carry through unchanged.
	MaxCut *Result
}

// SolveIsing minimizes an Ising Hamiltonian through the QAOA² stack.
// Two routes, chosen automatically:
//
//   - Direct: the Hamiltonian fits the device (N ≤ MaxQubits) and the
//     configured solver has native Ising support (solver.IsingSolver —
//     qaoa, exact, anneal, random, and best-of over them). The cost
//     layer compiles straight into the fused diagonal phase tables
//     (backend.PrepareIsing), with the Z2-reduced engine when h ≡ 0.
//
//   - Reduction: everything else — field-carrying Hamiltonians larger
//     than the device, or solvers that only speak MaxCut (gw, sdp-gw,
//     rqaoa). The Hamiltonian becomes an equivalent MaxCut instance on
//     N+1 nodes (ising.ToMaxCut), runs through the ordinary Solve —
//     partitioning, parallel sub-solves, merging, checkpoints, every
//     option applies — and the cut decodes back to spins with the
//     energy recomputed exactly from the Hamiltonian.
//
// Both routes end at the identical objective: E(Spins) is always
// reported from the Hamiltonian itself, never from intermediate cut
// values.
func SolveIsing(h *ising.Hamiltonian, opts Options) (*IsingResult, error) {
	if h == nil {
		return nil, fmt.Errorf("qaoa2: nil Hamiltonian")
	}
	opts = opts.withDefaults()
	if h.N() == 0 {
		return &IsingResult{Spins: []int8{}, Energy: h.Offset(), Direct: true}, nil
	}

	if _, ok := opts.Solver.(solver.IsingSolver); ok && h.N() <= opts.MaxQubits {
		sol, rep, err := solver.SolveIsingAttributed(opts.Solver, h, rng.New(opts.Seed))
		if err != nil {
			return nil, fmt.Errorf("qaoa2: ising: %w", err)
		}
		return &IsingResult{Spins: sol.Spins, Energy: sol.Energy, Direct: true, Report: rep}, nil
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
