package qsim

import (
	"fmt"

	"qaoa2/internal/rng"
)

// NoiseModel is a stochastic Pauli error model applied gate by gate via
// the quantum-trajectory method: after every perfect gate, a random
// Pauli error is injected with the configured probability. Averaging
// observables over trajectories converges to the depolarizing-channel
// density-matrix result while keeping statevector memory costs — the
// standard NISQ-simulation compromise, and the device imperfection
// (decoherence, §1) that motivates the paper's small-sub-graph
// decomposition in the first place.
type NoiseModel struct {
	// OneQubit is the depolarizing probability after each 1-qubit gate:
	// with this probability one of X, Y, Z hits the target.
	OneQubit float64
	// TwoQubit is the probability after each 2-qubit gate: one of the
	// 15 non-identity two-qubit Pauli products hits the pair.
	TwoQubit float64
}

// IsZero reports whether the model injects no errors.
func (m NoiseModel) IsZero() bool { return m.OneQubit <= 0 && m.TwoQubit <= 0 }

// Validate rejects probabilities outside [0, 1].
func (m NoiseModel) Validate() error {
	if m.OneQubit < 0 || m.OneQubit > 1 || m.TwoQubit < 0 || m.TwoQubit > 1 {
		return fmt.Errorf("qsim: noise probabilities %+v outside [0,1]", m)
	}
	return nil
}

// NoisyState wraps a State and injects trajectory noise after every
// gate. It implements the same backend interface as State, so circuits
// execute on it unchanged.
type NoisyState struct {
	S     *State
	Model NoiseModel
	R     *rng.Rand
	// Injections counts the Pauli errors actually applied on this
	// trajectory.
	Injections int
}

// NewNoisyState wraps s with the model; r drives the error lottery.
func NewNoisyState(s *State, model NoiseModel, r *rng.Rand) (*NoisyState, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("qsim: NoisyState needs a random source")
	}
	return &NoisyState{S: s, Model: model, R: r}, nil
}

// pauli1 applies a uniformly random single-qubit Pauli error.
func (n *NoisyState) pauli1(q int) {
	n.Injections++
	switch n.R.Intn(3) {
	case 0:
		n.S.ApplyX(q)
	case 1:
		n.S.ApplyY(q)
	default:
		n.S.ApplyZ(q)
	}
}

func (n *NoisyState) after1(q int) {
	if n.Model.OneQubit > 0 && n.R.Float64() < n.Model.OneQubit {
		n.pauli1(q)
	}
}

func (n *NoisyState) after2(q1, q2 int) {
	if n.Model.TwoQubit <= 0 || n.R.Float64() >= n.Model.TwoQubit {
		return
	}
	n.Injections++
	// One of the 15 non-identity elements of {I,X,Y,Z}⊗{I,X,Y,Z}.
	k := 1 + n.R.Intn(15)
	applyPauliCode(n.S, q1, k&3)
	applyPauliCode(n.S, q2, k>>2)
}

func applyPauliCode(s *State, q, code int) {
	switch code {
	case 1:
		s.ApplyX(q)
	case 2:
		s.ApplyY(q)
	case 3:
		s.ApplyZ(q)
	}
}

// The method set is circuit.Backend's — the gates of a synthesized
// QAOA circuit and of its routing — each the State gate followed by
// sampled noise. The Pauli errors themselves go straight to the State.

// ApplyH applies H then samples 1-qubit noise.
func (n *NoisyState) ApplyH(q int) { n.S.ApplyH(q); n.after1(q) }

// ApplyRX applies RX then samples 1-qubit noise.
func (n *NoisyState) ApplyRX(q int, theta float64) { n.S.ApplyRX(q, theta); n.after1(q) }

// ApplyRZ applies RZ then samples 1-qubit noise.
func (n *NoisyState) ApplyRZ(q int, theta float64) { n.S.ApplyRZ(q, theta); n.after1(q) }

// ApplyRZZ applies RZZ then samples 2-qubit noise.
func (n *NoisyState) ApplyRZZ(q1, q2 int, theta float64) {
	n.S.ApplyRZZ(q1, q2, theta)
	n.after2(q1, q2)
}

// ApplyCNOT applies CNOT then samples 2-qubit noise.
func (n *NoisyState) ApplyCNOT(c, t int) { n.S.ApplyCNOT(c, t); n.after2(c, t) }

// ApplySwap applies SWAP then samples 2-qubit noise.
func (n *NoisyState) ApplySwap(q1, q2 int) { n.S.ApplySwap(q1, q2); n.after2(q1, q2) }
