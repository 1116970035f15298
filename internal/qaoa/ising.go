package qaoa

import (
	"fmt"
	"math"
	"sort"

	"qaoa2/internal/backend"
	"qaoa2/internal/graph"
	"qaoa2/internal/ising"
	"qaoa2/internal/opt"
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

// SolveIsing runs the QAOA variational loop directly on an Ising
// Hamiltonian — the same ansatz shape, optimizers, multi-start
// batching and shot machinery as Solve, with the cost layer compiled
// from the Hamiltonian's diagonal instead of a cut table
// (backend.PrepareIsing). Internally the loop maximizes ⟨−E⟩ so every
// maximization-shaped component is reused verbatim; results are
// reported back in physical units (Energy, Expectation are E-valued).
// The solution is decoded as the minimum-energy basis state among the
// TopK highest-probability outcomes (or the TopK most frequent of
// DecodeShots samples).
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

	be := opts.Backend
	if be == nil {
		be = backend.Default(opts.Synthesis)
	}
	ans, err := backend.PrepareIsing(be, h, backend.Config{
		Layers:    opts.Layers,
		Synthesis: opts.Synthesis,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	layout := ans.Layout()
	table := ans.Diagonal() // −E: the maximization diagonal

	shotRand := r
	if shotRand == nil {
		shotRand = rng.New(opts.Seed ^ 0xa0a0a0a0)
	}

	p := opts.Layers
	x0 := make([]float64, 2*p)
	initGammas, initBetas := InitialParameters(p)
	if opts.InitGammas != nil || opts.InitBetas != nil {
		if len(opts.InitGammas) != p || len(opts.InitBetas) != p {
			return nil, fmt.Errorf("qaoa: initial parameter overrides need length %d, got %d/%d",
				p, len(opts.InitGammas), len(opts.InitBetas))
		}
		initGammas, initBetas = opts.InitGammas, opts.InitBetas
	}
	copy(x0[:p], initGammas)
	copy(x0[p:], initBetas)

	var res opt.Result
	var err2 error
	if opts.Restarts > 1 {
		res, err2 = multiStart(ans, opts, x0, shotRand, table)
	} else {
		res, _, err2 = runOptimizer(ans, opts, x0, shotRand, table, opts.Seed, nil)
	}
	if err2 != nil {
		return nil, err2
	}

	gammas := make([]float64, p)
	betas := make([]float64, p)
	copy(gammas, res.X[:p])
	copy(betas, res.X[p:])
	expectD, s, err := ans.Evaluate(gammas, betas)
	if err != nil {
		return nil, err
	}

	var spins []int8
	var energy float64
	if opts.DecodeShots > 0 {
		spins, energy = decodeIsingSampled(h, s, layout, opts.TopK, opts.DecodeShots, shotRand)
	} else {
		spins, energy = decodeIsing(h, s, layout, opts.TopK)
	}
	return &IsingResult{
		Spins:       spins,
		Energy:      energy,
		Expectation: -expectD,
		Gammas:      gammas,
		Betas:       betas,
		Evaluations: res.Evals,
		State:       s,
	}, nil
}

// decodeIsing extracts the minimum-energy assignment among the top-K
// probability basis states.
func decodeIsing(h *ising.Hamiltonian, s *qsim.State, layout []int, topK int) ([]int8, float64) {
	return bestIsingOf(h, layout, s.TopAmpIndices(topK))
}

// decodeIsingSampled extracts the minimum-energy assignment among the
// K most frequent outcomes of a finite-shot histogram (ties: higher
// count, then lower basis index).
func decodeIsingSampled(h *ising.Hamiltonian, s *qsim.State, layout []int, topK, shots int, r *rng.Rand) ([]int8, float64) {
	hist := s.Sample(shots, r)
	type entry struct {
		idx   uint64
		count int
	}
	entries := make([]entry, 0, len(hist))
	for idx, c := range hist {
		entries = append(entries, entry{idx, c})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].count != entries[b].count {
			return entries[a].count > entries[b].count
		}
		return entries[a].idx < entries[b].idx
	})
	if topK < 1 {
		topK = 1
	}
	if topK > len(entries) {
		topK = len(entries)
	}
	indices := make([]uint64, topK)
	for i := 0; i < topK; i++ {
		indices[i] = entries[i].idx
	}
	return bestIsingOf(h, layout, indices)
}

// bestIsingOf evaluates candidate basis states and keeps the lowest
// energy.
func bestIsingOf(h *ising.Hamiltonian, layout []int, indices []uint64) ([]int8, float64) {
	n := h.N()
	bestE := math.Inf(1)
	var best []int8
	for _, idx := range indices {
		bits := make([]uint8, n)
		for q := 0; q < n; q++ {
			bits[q] = uint8(idx >> uint(physOf(layout, q)) & 1)
		}
		if e := h.EnergyBits(bits); e < bestE {
			bestE = e
			best = graph.SpinsFromBits(bits)
		}
	}
	return best, bestE
}
