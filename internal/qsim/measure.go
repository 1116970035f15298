package qsim

import (
	"math"
	"sort"

	"qaoa2/internal/rng"
)

// Probability returns |⟨i|ψ⟩|².
func (s *State) Probability(i uint64) float64 {
	a := s.amps[i]
	re, im := real(a), imag(a)
	return re*re + im*im
}

// tieTol is the relative tolerance of the decode's tie set. The kernel
// tiers agree on every amplitude a to 1e-12 (the parity tests), so a
// probability p = |a|² moves by at most 2e-12·|a| between tiers:
// 2e-12/√p relative, at most 1.6e-8 for the largest probability of a
// 26-qubit state (p ≥ 2⁻²⁶). 1e-6 leaves a margin of 60 over that worst
// case, and of 500 at 20 qubits.
const tieTol = 1e-6

// maxTies bounds the tie set. Past it the set keeps its lowest-index
// members, which every tier still agrees on: a near-uniform state
// decodes from the first maxTies of its most probable basis states.
const maxTies = 64

// DecodeCandidates appends to dst the basis states a top-k decode must
// score, in ascending index order: every stored index whose probability
// is within a relative tieTol of the k-th largest probability of the
// expanded state (at most maxTies of them, the lowest indices kept),
// plus every index clearly above it. The paper decodes from the most
// probable basis state (k = 1) and proposes the best cut among the k
// most probable as an improvement; scoring the whole tie set instead of
// one ranked index makes every kernel tier decode the same bit string,
// since the tiers' probabilities differ in their last bits.
//
// On a Z2-reduced state the probabilities are the expansion's
// (scaledProb), each stored pair counts twice toward k, and only
// representatives are returned: a complement ties its representative's
// cut at a higher index. k is clamped to [1, 2^n]. NaN probabilities
// are never candidates; any other vector yields at least one candidate.
// With k ≤ 64 and room in dst the call allocates nothing.
func (s *State) DecodeCandidates(k int, dst []uint64) []uint64 {
	c, copies := 1.0, 1
	if s.z2Full != 0 {
		c, copies = z2Scale, 2
	}
	p, ok := s.kthProb(min(max(k, 1), copies*len(s.amps)), c, copies)
	if !ok {
		return dst
	}
	lo, hi := p*(1-tieTol), p*(1+tieTol)
	ties := 0
	for i, a := range s.amps {
		q := scaledProb(a, c)
		if !(q >= lo) {
			continue // the common case, and NaN
		}
		if q > hi {
			dst = append(dst, uint64(i))
		} else if ties < maxTies {
			dst = append(dst, uint64(i))
			ties++
		}
	}
	return dst
}

// kthProb returns the k-th largest of the probabilities (scaledProb
// with factor c) of the stored amplitudes, each counted copies times,
// by value alone: a plain max at k = 1 and a bounded insertion
// selection above it. NaN never ranks; ok is false when every
// probability is NaN, and past the last other value the smallest of
// them stands in.
func (s *State) kthProb(k int, c float64, copies int) (p float64, ok bool) {
	if k == 1 {
		p = -1
		for _, a := range s.amps {
			if q := scaledProb(a, c); q > p {
				p = q
			}
		}
		return p, p >= 0
	}
	var buf [64]float64
	top := buf[:0] // the k largest so far, descending
	if k > len(buf) {
		top = make([]float64, 0, k)
	}
	for _, a := range s.amps {
		q := scaledProb(a, c)
		for range copies {
			if math.IsNaN(q) || len(top) == k && !(q > top[k-1]) {
				break
			}
			// A full selection drops its smallest value for q.
			top = append(top[:min(len(top), k-1)], q)
			for j := len(top) - 1; j > 0 && top[j-1] < q; j-- {
				top[j-1], top[j] = q, top[j-1]
			}
		}
	}
	if len(top) == 0 {
		return 0, false
	}
	return top[len(top)-1], true
}

// Sample draws `shots` measurement outcomes in the computational basis,
// returning a histogram basis-index → count. It uses the inverse-CDF
// method with sorted uniforms: O(2^n + shots·log shots) and no 2^n
// auxiliary allocation beyond the caller-visible histogram.
//
// On a Z2-reduced state the walk runs over the VIRTUAL expanded basis
// in index order — the lower half reads representatives ascending, the
// upper half reads their complements (the pair of full index j is
// mask^j, so the reduced buffer is read descending) at the same halved
// probability. The CDF therefore matches the expanded state's exactly
// and the histogram keys are FULL basis indices: sampling from the
// reduced state is fair by construction and bit-identical to sampling
// the expanded state with the same random stream.
func (s *State) Sample(shots int, r *rng.Rand) map[uint64]int {
	hist := make(map[uint64]int)
	if shots <= 0 {
		return hist
	}
	u := make([]float64, shots)
	for i := range u {
		u[i] = r.Float64()
	}
	sort.Float64s(u)
	virtual := uint64(len(s.amps))
	prob := func(i uint64) float64 {
		a := s.amps[i]
		re, im := real(a), imag(a)
		return re*re + im*im
	}
	if s.z2Full != 0 {
		virtual *= 2
		mask := virtual - 1
		prob = func(i uint64) float64 {
			if i >= virtual/2 {
				i = mask ^ i
			}
			return scaledProb(s.amps[i], z2Scale)
		}
	}
	cum := 0.0
	next := 0
	for i := uint64(0); i < virtual; i++ {
		cum += prob(i)
		for next < shots && u[next] < cum {
			hist[i]++
			next++
		}
		if next == shots {
			break
		}
	}
	// Numerical round-off can leave trailing draws; assign them to the
	// last basis state.
	for next < shots {
		hist[virtual-1]++
		next++
	}
	return hist
}

// ExpectDiagonal returns ⟨ψ| D |ψ⟩ for the diagonal operator with basis
// values given by the table (len 2^n). The QAOA objective F_p = ⟨H_C⟩ is
// evaluated through this with a precomputed cut-value table. The sum
// is one fold in index order on the calling goroutine, so its bits do
// not depend on the core count; it is one pass against the dozens of
// gate sweeps that prepared the state.
func (s *State) ExpectDiagonal(table []float64) float64 {
	if len(table) != len(s.amps) {
		panic("qsim: diagonal table length mismatch")
	}
	return (&CostTables{Diag: table}).fold(0, s.amps, 0)
}
