package backend

import (
	"fmt"

	"qaoa2/internal/ising"
	"qaoa2/internal/qsim"
	"qaoa2/internal/synth"
)

// IsingBackend is the optional extension for backends that can execute
// a QAOA ansatz over an arbitrary Ising Hamiltonian (internal/ising),
// not just a MaxCut graph. The returned Ansatz follows the repository's
// maximization convention: its Diagonal() and Evaluate() expose
// D = −E, so every consumer built to maximize ⟨H_C⟩ (the optimizers,
// multi-start batching, top-K decoding) works unchanged — minimizing
// the energy IS maximizing ⟨D⟩, and the reported expectation negates
// back to ⟨E⟩ at the call site that wants physical units.
type IsingBackend interface {
	Backend
	// PrepareIsing compiles the ansatz for h at the configured depth.
	PrepareIsing(h *ising.Hamiltonian, cfg Config) (Ansatz, error)
}

// PrepareIsing prepares an Ising ansatz through b when it implements
// IsingBackend and fails with a clear error otherwise (the Noisy
// trajectory backend has no Ising gate walk yet).
func PrepareIsing(b Backend, h *ising.Hamiltonian, cfg Config) (Ansatz, error) {
	if ib, ok := b.(IsingBackend); ok {
		return ib.PrepareIsing(h, cfg)
	}
	return nil, fmt.Errorf("backend: %s cannot execute Ising Hamiltonians (want fused|fused-z2|fused-full|dense)", b.Name())
}

// maximizationDiagonal is D = −E over full basis states, the
// maximization-convention diagonal of h: the cut table of its
// reduction graph (ising.Hamiltonian.ToMaxCut) over the first n wires,
// the ancilla held at bit 0 (s = +1), where E = offset + W − 2·cut.
func maximizationDiagonal(h *ising.Hamiltonian) ([]float64, error) {
	g, err := h.ToMaxCut()
	if err != nil {
		return nil, err
	}
	diag := make([]float64, 1<<uint(h.N()))
	doubleCuts(g, nil, diag)
	shift := h.Offset() + g.TotalWeight()
	for x, cut := range diag {
		diag[x] = -(shift - 2*cut)
	}
	return diag, nil
}

// PrepareIsing implements IsingBackend on the fused path: the Ising
// cost layer is as diagonal as MaxCut's, so the identical engine
// executes it — only the tables change. The
// expectation diagonal is D = −E (maximization convention) and the
// phase table is shift = offset − E, which reproduces the global phase
// of the Dense reference walk (RZZ(−2γJ_ij) · RZ(−2γh_i) per layer accrues
// e^{+iγ(E−offset)} on basis state x), keeping Fused amplitude-identical
// to Dense; the Ising parity tests pin it at 1e-12 like the MaxCut
// ones. For the MaxCut degenerate case (ising.MaxCutProblem: E = −cut,
// offset = −W/2) these tables are exactly the fused MaxCut tables —
// D = cut, shift = cut − W/2.
//
// The Z2-eligibility guard: the reduced engine requires
// diagonal(x) = diagonal(~x), which holds iff the Hamiltonian has no
// linear fields (h ≡ 0, ising.Z2Symmetric). A field-carrying
// Hamiltonian silently falls back to the full 2^n engine — it must
// never run reduced, because the even-sector projection would be a
// DIFFERENT state, not a cheaper encoding of the same one. The guard
// tests pin both directions (symmetric → reduced, fields → full,
// identical results either way).
func (f Fused) PrepareIsing(h *ising.Hamiltonian, cfg Config) (Ansatz, error) {
	if err := checkGraph(h, cfg); err != nil {
		return nil, err
	}
	// shift = offset − E = D + offset.
	diag, err := maximizationDiagonal(h)
	if err != nil {
		return nil, err
	}
	return f.prepare(h.N(), h.Z2Symmetric(), cfg.Layers, func(k int) (qsim.CostTables, []float64) {
		return phaseTables(diag, h.Offset(), 1<<uint(k)), diag
	})
}

// PrepareIsing implements IsingBackend on the reference gate walk: one
// RZZ(−2γ_l J_ij) per coupling, one RZ(−2γ_l h_i) per field and one
// RX(2β_l) per qubit and layer, applied directly to |+⟩^⊗n. With the
// exp(−iθZ/2) gate conventions of internal/qsim this realizes
// e^{+iγ_l(E − offset)} per cost layer — the oracle the fused Ising
// path is pinned against. Synthesis preferences are ignored (there is
// no routed circuit; Layout is the identity and Report is zero): the
// walk exists for parity, not for device-shaped compilation.
func (Dense) PrepareIsing(h *ising.Hamiltonian, cfg Config) (Ansatz, error) {
	if err := checkGraph(h, cfg); err != nil {
		return nil, err
	}
	diag, err := maximizationDiagonal(h)
	if err != nil {
		return nil, err
	}
	return &denseIsingAnsatz{n: h.N(), layers: cfg.Layers, h: h.Clone(), diag: diag}, nil
}

type denseIsingAnsatz struct {
	n, layers int
	h         *ising.Hamiltonian
	diag      []float64 // −E, the maximization diagonal
}

// Evaluate implements Ansatz by replaying the gate walk on a fresh
// plus state.
func (a *denseIsingAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	if err := checkParams(a.layers, gammas, betas); err != nil {
		return 0, nil, err
	}
	s, err := qsim.NewPlusState(a.n)
	if err != nil {
		return 0, nil, err
	}
	couplings := a.h.Couplings()
	fields := a.h.Fields()
	for l := 0; l < a.layers; l++ {
		for _, c := range couplings {
			s.ApplyRZZ(c.I, c.J, -2*gammas[l]*c.W)
		}
		for i, f := range fields {
			if f != 0 {
				s.ApplyRZ(i, -2*gammas[l]*f)
			}
		}
		for q := 0; q < a.n; q++ {
			s.ApplyRX(q, 2*betas[l])
		}
	}
	return s.ExpectDiagonal(a.diag), s, nil
}

// Diagonal implements Ansatz: D = −E over full basis states.
func (a *denseIsingAnsatz) Diagonal() []float64 { return a.diag }

// Layout implements Ansatz: always identity.
func (a *denseIsingAnsatz) Layout() []int { return nil }

// Report implements Ansatz: no circuit is synthesized.
func (a *denseIsingAnsatz) Report() synth.Report { return synth.Report{} }
