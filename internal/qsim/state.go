// Package qsim is a from-scratch statevector quantum-circuit simulator,
// the substitute for the aer simulator used in the paper. It provides
//
//   - exact state evolution for the gates a QAOA circuit is made of —
//     the H wall, RZZ (or CNOT + RZ) cost layers, RX mixers, and the
//     SWAPs of linear routing — with amplitude-sliced multi-core
//     parallelism; this gate walk is what internal/backend's dense
//     backend executes;
//
//   - a cache-blocked fused execution engine for the QAOA objective,
//     which internal/backend's fused backends run: the cost diagonal
//     in indexed or dense form (diagonal.go), the blocked multi-qubit
//     mixer ApplyRXAll (mixer.go, with AVX-512 and AVX2+FMA kernel
//     tiers on amd64) and Engine (engine.go), which runs whole p-layer
//     evaluations — phase, mixer, initial state and energy reduction
//     fused into ⌈1 + (n−10)/6⌉ sweeps per layer — with zero
//     steady-state allocations over a persistent worker pool (pool.go);
//
//   - measurement: probability extraction, shot sampling, highest- and
//     top-K-amplitude queries (the paper decodes the best-amplitude bit
//     string; top-K is its suggested improvement).
//
// Convention: qubit q is bit q of the basis-state index (little-endian),
// so |x_{n-1} ... x_1 x_0⟩ has index Σ x_q 2^q.
package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// MaxQubits caps state allocation (2^26 amplitudes = 1 GiB); larger
// requests return an error instead of an OOM kill.
const MaxQubits = 26

// State is an n-qubit statevector.
type State struct {
	n    int
	amps []complex128
	// pool overrides the shared kernel worker pool for tests (a
	// one-worker pool runs every kernel inline); nil selects the
	// process-wide pool.
	pool *workerPool
	// z2Full marks a Z2-symmetry-reduced state (z2.go): nonzero nFull
	// means amps is the even-sector half-vector of an nFull-qubit
	// symmetric state and n == nFull−1.
	z2Full int
	// peaks, when set, holds the largest |a|² of each batch of the
	// engine's folding sweep (Engine.Evaluate): batch u is the rows
	// amps[r·stride + u·highBatch:][:highBatch], stride =
	// len(peaks)·highBatch, r < len(amps)/stride. DecodeCandidates reads
	// only the batches whose peak can reach its tie set. Every sweep
	// drops them (sweep), and so does Evaluate's p = 0 fill, so they
	// always describe the amplitudes.
	peaks []float64
	// wg carries the dispatch of the state's parallel sweeps (sweep).
	// One is enough: every sweep writes the amplitudes, so two never
	// run on one state at once.
	wg sync.WaitGroup
}

// NewState allocates |0...0⟩ on n qubits.
func NewState(n int) (*State, error) {
	if err := checkQubits(n); err != nil {
		return nil, err
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	s.amps[0] = 1
	return s, nil
}

// checkQubits rejects the qubit counts NewState cannot allocate.
func checkQubits(n int) error {
	if n < 1 {
		return fmt.Errorf("qsim: need at least 1 qubit, got %d", n)
	}
	if n > MaxQubits {
		return fmt.Errorf("qsim: %d qubits exceeds MaxQubits=%d (%.1f GiB state)",
			n, MaxQubits, float64(16*(uint64(1)<<uint(n)))/(1<<30))
	}
	return nil
}

// NewPlusState allocates the uniform superposition H^⊗n |0...0⟩, the
// QAOA initial state.
func NewPlusState(n int) (*State, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	amp := complex(1/math.Sqrt(float64(len(s.amps))), 0)
	for i := range s.amps {
		s.amps[i] = amp
	}
	return s, nil
}

// Len returns the number of amplitudes (2^n).
func (s *State) Len() int { return len(s.amps) }

// Amp returns the amplitude of basis state i.
func (s *State) Amp(i uint64) complex128 { return s.amps[i] }

// Clone deep-copies the state (including its pool override and any
// Z2-reduction mark). The copy keeps no batch peaks, so its
// decode reads it whole.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps)), pool: s.pool, z2Full: s.z2Full}
	copy(c.amps, s.amps)
	return c
}

// NormSquared returns ⟨ψ|ψ⟩, which is 1 for a valid state.
func (s *State) NormSquared() float64 {
	total := 0.0
	for _, a := range s.amps {
		re, im := real(a), imag(a)
		total += re*re + im*im
	}
	return total
}

// Fidelity returns |⟨s|t⟩|².
func Fidelity(s, t *State) float64 {
	if s.n != t.n {
		panic("qsim: fidelity of states with different qubit counts")
	}
	var inner complex128
	for i := range s.amps {
		inner += cmplx.Conj(s.amps[i]) * t.amps[i]
	}
	re, im := real(inner), imag(inner)
	return re*re + im*im
}

// parallelThreshold is the amplitude count below which gate kernels stay
// single-threaded (dispatch overhead dominates under ~2^14 amplitudes).
// Parallel execution goes through the persistent worker pool (pool.go).
const parallelThreshold = 1 << 14

// checkQubit panics on out-of-range qubit indices; gate callers are
// internal and a silent wrap-around would corrupt the state.
func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("qsim: qubit %d out of range [0,%d)", q, s.n))
	}
}

// pairIndex maps a pair counter k to the lower index of the k-th
// amplitude pair for a gate on qubit q.
func pairIndex(k int, q int) uint64 {
	mask := uint64(1)<<uint(q) - 1
	uk := uint64(k)
	return (uk>>uint(q))<<uint(q+1) | (uk & mask)
}

// Apply1Q applies the 2x2 unitary m to qubit q.
func (s *State) Apply1Q(q int, m [2][2]complex128) {
	s.checkQubit(q)
	step := uint64(1) << uint(q)
	pairs := len(s.amps) / 2
	s.sweep(pairs, 1, func(_, start, end int) {
		for k := start; k < end; k++ {
			i0 := pairIndex(k, q)
			i1 := i0 | step
			a0, a1 := s.amps[i0], s.amps[i1]
			s.amps[i0] = m[0][0]*a0 + m[0][1]*a1
			s.amps[i1] = m[1][0]*a0 + m[1][1]*a1
		}
	})
}

// ApplyH applies the Hadamard gate to qubit q.
func (s *State) ApplyH(q int) {
	inv := complex(1/math.Sqrt2, 0)
	s.Apply1Q(q, [2][2]complex128{{inv, inv}, {inv, -inv}})
}

// ApplyRX applies RX(θ) = exp(-iθX/2) to qubit q. The QAOA mixer layer
// is RX(2β) on every qubit, so this is an inner-loop hot path: a
// dedicated kernel exploits the real diagonal and imaginary
// off-diagonal of RX (4 real multiplies per amplitude instead of the 8
// of the generic 2x2 path).
func (s *State) ApplyRX(q int, theta float64) {
	s.checkQubit(q)
	c := math.Cos(theta / 2)
	sn := math.Sin(theta / 2)
	step := uint64(1) << uint(q)
	pairs := len(s.amps) / 2
	s.sweep(pairs, 1, func(_, start, end int) {
		for k := start; k < end; k++ {
			i0 := pairIndex(k, q)
			i1 := i0 | step
			a0, a1 := s.amps[i0], s.amps[i1]
			// RX = [[c, -i·sn], [-i·sn, c]]; -i·sn·a = (sn·Im a, -sn·Re a).
			s.amps[i0] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
			s.amps[i1] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
		}
	})
}

// ApplyRZ applies RZ(θ) = exp(-iθZ/2) = diag(e^{-iθ/2}, e^{+iθ/2}).
func (s *State) ApplyRZ(q int, theta float64) {
	s.checkQubit(q)
	step := uint64(1) << uint(q)
	p0 := cmplx.Exp(complex(0, -theta/2))
	p1 := cmplx.Exp(complex(0, theta/2))
	s.sweep(len(s.amps), 1, func(_, start, end int) {
		for i := start; i < end; i++ {
			if uint64(i)&step == 0 {
				s.amps[i] *= p0
			} else {
				s.amps[i] *= p1
			}
		}
	})
}

// ApplyRZZ applies RZZ(θ) = exp(-iθ Z⊗Z / 2), the diagonal interaction
// that implements one MaxCut cost edge: phase e^{-iθ/2} when the two
// bits agree, e^{+iθ/2} when they differ.
func (s *State) ApplyRZZ(q1, q2 int, theta float64) {
	s.checkQubit(q1)
	s.checkQubit(q2)
	if q1 == q2 {
		panic("qsim: RZZ on identical qubits")
	}
	b1 := uint64(1) << uint(q1)
	b2 := uint64(1) << uint(q2)
	same := cmplx.Exp(complex(0, -theta/2))
	diff := cmplx.Exp(complex(0, theta/2))
	s.sweep(len(s.amps), 1, func(_, start, end int) {
		for i := start; i < end; i++ {
			u := uint64(i)
			if (u&b1 != 0) == (u&b2 != 0) {
				s.amps[i] *= same
			} else {
				s.amps[i] *= diff
			}
		}
	})
}

// ApplyCNOT applies a controlled-X with the given control and target.
func (s *State) ApplyCNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("qsim: CNOT with control == target")
	}
	cb := uint64(1) << uint(control)
	tb := uint64(1) << uint(target)
	// Swap amplitude pairs (i, i^tb) where control bit set and target
	// bit clear; enumerating pairs over the target qubit keeps each swap
	// visited exactly once.
	pairs := len(s.amps) / 2
	s.sweep(pairs, 1, func(_, start, end int) {
		for k := start; k < end; k++ {
			i0 := pairIndex(k, target)
			if i0&cb == 0 {
				continue
			}
			i1 := i0 | tb
			s.amps[i0], s.amps[i1] = s.amps[i1], s.amps[i0]
		}
	})
}

// ApplySwap exchanges two qubits.
func (s *State) ApplySwap(q1, q2 int) {
	s.checkQubit(q1)
	s.checkQubit(q2)
	if q1 == q2 {
		return
	}
	b1 := uint64(1) << uint(q1)
	b2 := uint64(1) << uint(q2)
	s.sweep(len(s.amps), 1, func(_, start, end int) {
		for i := start; i < end; i++ {
			u := uint64(i)
			x1 := u & b1
			x2 := u & b2
			// Visit each amplitude once; swap only from the (1,0) side.
			if x1 != 0 && x2 == 0 {
				j := u ^ b1 ^ b2
				s.amps[u], s.amps[j] = s.amps[j], s.amps[u]
			}
		}
	})
}
