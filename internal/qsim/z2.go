package qsim

import (
	"fmt"
	"math"
)

// Z2 symmetry reduction. The MaxCut cost Hamiltonian and the RX mixer
// both commute with the global spin-flip operator X⊗…⊗X, and the QAOA
// initial state |+⟩^⊗n is its +1 eigenvector — so the entire evolution
// lives in the even-parity sector, where every amplitude satisfies
// amp(i) = amp(~i) (~ = bitwise complement over n bits). A reduced
// State stores only one member of each (i, ~i) pair: the REPRESENTATIVE
// is the index with bit n−1 clear, so representatives are exactly the
// indices [0, 2^(n−1)) and the reduced vector is addressed by the low
// n−1 bits directly. Amplitudes are stored renormalized,
//
//	a[i] = √2 · amp(i),   Σ |a[i]|² = 1,
//
// which makes the reduced vector a unit-norm (n−1)-qubit statevector:
// every blocked kernel, the worker pool, and the expectation fold apply
// unchanged, on half the memory and half the sweep length — one free
// qubit at every size (Lin et al., arXiv:2312.03019). Diagonal tables
// restrict to the prefix table[:2^(n−1)], because table(i) = table(~i)
// and representatives index the prefix directly.
//
// The measurement layer (measure.go) understands reduced states and
// reports FULL-space results — Sample and DecodeCandidates on a reduced
// state read the expanded 2^n state's probabilities bit for bit (the
// decode returns representatives only).

// Z2Full reports the reduction: nonzero nFull means this State is the
// even-sector half-vector of an nFull-qubit Z2-symmetric state (and
// N()/Len() describe the nFull−1 effective qubits actually stored);
// zero means an ordinary full statevector.
func (s *State) Z2Full() int { return s.z2Full }

// NewZ2State allocates the Z2-reduced half-vector of an nFull-qubit
// symmetric state: 2^(nFull−1) amplitudes behaving as an (nFull−1)-qubit
// State for every kernel. The state starts as the reduction of the
// symmetric basis mix (|0…0⟩ + |1…1⟩)/√2.
func NewZ2State(nFull int) (*State, error) {
	if err := checkZ2Qubits(nFull); err != nil {
		return nil, err
	}
	s, err := NewState(nFull - 1)
	if err != nil {
		return nil, err
	}
	s.z2Full = nFull
	return s, nil
}

// checkZ2Qubits rejects the full qubit counts NewZ2State cannot reduce.
func checkZ2Qubits(nFull int) error {
	if nFull < 2 {
		return fmt.Errorf("qsim: z2 reduction needs at least 2 qubits, got %d", nFull)
	}
	if nFull > MaxQubits {
		return fmt.Errorf("qsim: %d qubits exceeds MaxQubits=%d", nFull, MaxQubits)
	}
	return nil
}

// ExpandZ2 materializes the full 2^n statevector of a reduced state
// into a new State: amp(i) = a[rep(i)]/√2, where rep(i) is i with bit
// n−1 cleared by complementing. Ordinary states are returned unchanged.
func (s *State) ExpandZ2() *State {
	if s.z2Full == 0 {
		return s
	}
	half := len(s.amps)
	mask := uint64(2*half - 1)
	full := make([]complex128, 2*half)
	for i, a := range s.amps {
		v := complex(real(a)*z2Scale, imag(a)*z2Scale)
		full[i] = v
		full[mask^uint64(i)] = v
	}
	return &State{n: s.z2Full, amps: full, pool: s.pool}
}

// z2Scale takes a stored amplitude of a reduced state to its pair
// members' amplitude in the expansion.
const z2Scale = 1 / math.Sqrt2

// scaledProb is |a·c|² with every product rounded on its own. With
// c = z2Scale it is the expanded state's probability of a stored
// amplitude in the exact floating-point operations ExpandZ2 uses, so
// measurement results on a reduced state are bit-identical to the same
// calls on its expansion; c = 1 gives |a|² to the bit.
func scaledProb(a complex128, c float64) float64 {
	re, im := real(a)*c, imag(a)*c
	return re*re + im*im
}
