package qsim

import "math"

// The kernels in this file are the building blocks of the fused
// diagonal-cost execution path (internal/backend's FusedBackend): the
// MaxCut cost Hamiltonian is diagonal in the computational basis, so a
// whole e^{-iγ H_C} layer collapses to one element-wise phase pass over
// the statevector instead of a per-edge RZZ gate walk.

// FillPlus overwrites the state with the uniform superposition
// H^⊗n |0...0⟩ in place, without reallocating the amplitude buffer.
// This is the QAOA initial state; fused backends call it at the top of
// every objective evaluation to recycle the buffer.
func (s *State) FillPlus() {
	amp := complex(1/math.Sqrt(float64(len(s.amps))), 0)
	s.parFor(len(s.amps), func(start, end int) {
		for i := start; i < end; i++ {
			s.amps[i] = amp
		}
	})
}

// ApplyPhaseDiagonal multiplies amplitude i by e^{-iθ·diag[i]}, i.e.
// applies exp(-iθ D) for the diagonal operator D with the given basis
// values. One call implements a full QAOA cost layer when diag holds
// the (phase-shifted) cut-value table. len(diag) must be 2^n.
func (s *State) ApplyPhaseDiagonal(theta float64, diag []float64) {
	if len(diag) != len(s.amps) {
		panic("qsim: phase diagonal length mismatch")
	}
	s.parFor(len(s.amps), func(start, end int) {
		for i := start; i < end; i++ {
			sin, cos := math.Sincos(-theta * diag[i])
			s.amps[i] *= complex(cos, sin)
		}
	})
}
