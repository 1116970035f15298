package qaoa

import (
	"fmt"

	"qaoa2/internal/backend"
	"qaoa2/internal/ising"
	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

// IsingResult reports one direct Ising QAOA run.
type IsingResult struct {
	// Spins is the decoded minimum-energy assignment.
	Spins []int8
	// Energy is E(Spins) — the minimized objective, in physical units.
	Energy float64
	// Expectation is the exact ⟨E⟩ at the optimized parameters.
	Expectation float64
	Gammas      []float64
	Betas       []float64
	Evaluations int
	// State is the final statevector (Z2-reduced under the default
	// fused backend when the Hamiltonian is field-free).
	State *qsim.State
}

// SolveIsing runs Solve's variational loop directly on an Ising
// Hamiltonian. The ansatz comes from backend.PrepareIsing, whose cost
// layer is the Hamiltonian's diagonal −E where Solve's is a cut table,
// and a decoded bit string is scored by −E where Solve scores its cut;
// optimizers, multi-start batching, shots and TopK/DecodeShots decoding
// are Solve's. The solution is therefore the minimum-energy basis state
// among the TopK highest-probability outcomes (or the TopK most frequent
// of DecodeShots samples). Energy and Expectation are reported in
// physical units (E-valued). No certificate is sought: the optimizer
// spends its whole budget.
func SolveIsing(h *ising.Hamiltonian, opts Options, r *rng.Rand) (*IsingResult, error) {
	opts = opts.withDefaults()
	if h == nil {
		return nil, fmt.Errorf("qaoa: nil Hamiltonian")
	}
	n := h.N()
	if n == 0 {
		return &IsingResult{Spins: []int8{}, Energy: h.Offset(), Expectation: h.Offset()}, nil
	}
	if n > qsim.MaxQubits {
		return nil, fmt.Errorf("qaoa: %d spins exceeds simulator capacity of %d qubits", n, qsim.MaxQubits)
	}

	be, cfg := opts.backend()
	ans, err := backend.PrepareIsing(be, h, cfg)
	if err != nil {
		return nil, err
	}
	res, err := run(ans, n, func(bits []uint8) float64 { return -h.EnergyBits(bits) }, nil, opts, r)
	if err != nil {
		return nil, err
	}
	return &IsingResult{
		Spins:       res.Cut.Spins,
		Energy:      -res.Cut.Value,
		Expectation: -res.Expectation,
		Gammas:      res.Gammas,
		Betas:       res.Betas,
		Evaluations: res.Evaluations,
		State:       res.State,
	}, nil
}
