package qsim

import (
	"math"
	"sort"
	"sync"

	"qaoa2/internal/rng"
)

// Probability returns |⟨i|ψ⟩|².
func (s *State) Probability(i uint64) float64 {
	a := s.amps[i]
	re, im := real(a), imag(a)
	return re*re + im*im
}

// MaxAmpIndex returns the basis state with the largest probability (the
// paper's solution-decoding rule: "the bit string corresponding to the
// highest amplitude ... is chosen as a solution"). Ties resolve to the
// smallest index for determinism.
//
// On a Z2-reduced state (z2.go) the scan over representatives IS the
// full-space argmax: each pair is ranked by z2PairProb, the probability
// its members have in the expansion, and the representative is the
// numerically smaller index, so the returned index matches the expanded
// state's argmax — and TopAmpIndices(1) — exactly. (Ranking by the
// stored |a|² instead can split a tie the expansion has.)
//
// The ranking runs at memory speed in the kernel tiers (maxProb), over
// (re·k)² + (im·k)² with k = 1/√2 on a reduced state and 1 otherwise —
// z2PairProb's and |a|²'s bits for every finite amplitude — and the
// portable scan ranks what the kernels leave: the tail past their last
// whole step, or the whole vector once they meet a NaN or +Inf.
func (s *State) MaxAmpIndex() uint64 {
	k := 1.0
	if s.z2Full != 0 {
		k = 1 / math.Sqrt2
	}
	best, bestP, n := maxProb(s.amps, k)
	return s.maxAmpScan(n, best, bestP)
}

// maxAmpScan is MaxAmpIndex's portable scan, the reference of every
// kernel tier: it continues a scan that found bestP, first at best, over
// amps[:from] through the rest of the vector. maxAmpScan(0, 0, −1) is
// the whole scan.
func (s *State) maxAmpScan(from int, best uint64, bestP float64) uint64 {
	if s.z2Full != 0 {
		for i := from; i < len(s.amps); i++ {
			if p := z2PairProb(s.amps[i]); p > bestP {
				bestP = p
				best = uint64(i)
			}
		}
		return best
	}
	for i := from; i < len(s.amps); i++ {
		a := s.amps[i]
		re, im := real(a), imag(a)
		p := re*re + im*im
		if p > bestP {
			bestP = p
			best = uint64(i)
		}
	}
	return best
}

// TopAmpIndices returns the k basis states with the largest
// probabilities, in descending probability order (ties: ascending
// index). This is the paper's proposed improvement over single-best
// decoding ("consider a number of highest amplitudes and chose the bit
// string yielding the highest cut").
// On a Z2-reduced state the selection runs over the VIRTUAL expanded
// basis — each stored pair contributes both its representative and the
// complement at equal probability — so the result is identical to
// calling TopAmpIndices on the expanded state.
func (s *State) TopAmpIndices(k int) []uint64 {
	virtual := len(s.amps)
	if s.z2Full != 0 {
		virtual *= 2
	}
	if k < 1 {
		k = 1
	}
	if k > virtual {
		k = virtual
	}
	type entry struct {
		p float64
		i uint64
	}
	// Bounded selection: keep a slice of the k best, heapless since k is
	// tiny in practice (k ≤ 32 in the experiments).
	top := make([]entry, 0, k+1)
	// The reduced branch pushes each representative with its complement,
	// so indices do not arrive in ascending order: an entry tying the
	// last one's probability still displaces it when its index is lower.
	push := func(p float64, i uint64) {
		if len(top) == k && (p < top[k-1].p || p == top[k-1].p && i > top[k-1].i) {
			return
		}
		pos := sort.Search(len(top), func(j int) bool {
			if top[j].p != p {
				return top[j].p < p
			}
			return top[j].i > i
		})
		top = append(top, entry{})
		copy(top[pos+1:], top[pos:])
		top[pos] = entry{p: p, i: i}
		if len(top) > k {
			top = top[:k]
		}
	}
	if s.z2Full != 0 {
		mask := uint64(2*len(s.amps) - 1)
		for i := range s.amps {
			p := z2PairProb(s.amps[i])
			push(p, uint64(i))
			push(p, mask^uint64(i))
		}
	} else {
		for i := range s.amps {
			a := s.amps[i]
			re, im := real(a), imag(a)
			push(re*re+im*im, uint64(i))
		}
	}
	out := make([]uint64, len(top))
	for j, e := range top {
		out[j] = e.i
	}
	return out
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
			return z2PairProb(s.amps[i])
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
// evaluated through this with a precomputed cut-value table.
func (s *State) ExpectDiagonal(table []float64) float64 {
	if len(table) != len(s.amps) {
		panic("qsim: diagonal table length mismatch")
	}
	var mu sync.Mutex
	total := 0.0
	s.parFor(len(s.amps), func(start, end int) {
		acc := 0.0
		for i := start; i < end; i++ {
			a := s.amps[i]
			re, im := real(a), imag(a)
			acc += (re*re + im*im) * table[i]
		}
		mu.Lock()
		total += acc
		mu.Unlock()
	})
	return total
}
