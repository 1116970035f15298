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
// After Engine.Evaluate the state holds its folding sweep's batch peaks
// (peaks), and the decode reads only the batches whose peak can reach
// the tie set (view); any other state is one batch, read whole.
// The peaks only choose batches: the k-th probability and every
// candidate come from the same comparisons on the same amplitudes
// either way, so the candidates are those of a whole-vector scan.
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
	k = min(max(k, 1), copies*len(s.amps))
	var topBuf [64]float64
	top := topBuf[:0] // the selection buffer of the k > 1 ranks
	if k > len(topBuf) {
		top = make([]float64, 0, k)
	}
	v := s.view(k, copies, top)
	p, ok := v.kthProb(s.amps, k, c, copies, top)
	if !ok {
		return dst
	}
	lo, hi := p*(1-tieTol), p*(1+tieTol)
	ties := 0
	for off, row := range v.rows(s.amps) {
		for j, a := range row {
			q := scaledProb(a, c)
			if !(q >= lo) {
				continue // the common case, and NaN
			}
			if q > hi {
				dst = append(dst, uint64(off+j))
			} else if ties < maxTies {
				dst = append(dst, uint64(off+j))
				ties++
			}
		}
	}
	return dst
}

// batchView is the part of a vector a decode reads: row r of batch u
// is amps[(r·len(peaks) + u)·width:][:width], and the batches read are
// those whose peak reaches floor.
type batchView struct {
	width int
	peaks []float64
	floor float64
}

// wholeVector is the one peak of a vector read whole, as one batch: it
// meets the floor 0 such a view keeps.
var wholeVector = []float64{0}

// rows yields the offset and amplitudes of each row the view reads in
// ascending index order: row by row, and within a row batch by batch.
func (v batchView) rows(amps []complex128) func(yield func(int, []complex128) bool) {
	return func(yield func(int, []complex128) bool) {
		peaks, floor, width := v.peaks, v.floor, v.width
		for r := 0; r < len(amps); r += len(peaks) * width {
			for u, q := range peaks {
				if q < floor {
					continue
				}
				off := r + u*width
				if !yield(off, amps[off:off+width]) {
					return
				}
			}
		}
	}
}

// view returns the batches a top-k decode must read: those whose peak
// reaches peakFloor, or — on a state without usable peaks — the vector
// whole, as one batch. top is the selection buffer (cap ≥ k).
func (s *State) view(k, copies int, top []float64) batchView {
	if floor, ok := peakFloor(s.peaks, k, copies, top); ok {
		return batchView{width: highBatch, peaks: s.peaks, floor: floor}
	}
	return batchView{width: len(s.amps), peaks: wholeVector}
}

// peakFloor returns the floor a batch's peak must reach for the batch
// to hold a candidate: the k-th largest of the peaks, each counted
// copies times, less 2·tieTol. At least k probabilities of the
// expanded state lie at or above the k-th peak, so the k-th largest
// probability p does too, and a batch whose every |a|² is below the
// floor lies below p·(1−tieTol): it can hold no candidate and cannot
// move p. A peak is |a|² of the stored amplitude where the decode
// compares scaledProb; the two differ by a few ulps beside the factor
// c², far inside the second tieTol, wherever neither under- nor
// overflows — so ok is false, and every batch is read, when fewer than
// k peaks rank (no peaks at all, too) or the k-th lies outside
// [2^-900, 2^900]. top is the selection buffer.
func peakFloor(peaks []float64, k, copies int, top []float64) (floor float64, ok bool) {
	var kth float64
	if k == 1 {
		for _, q := range peaks {
			if q > kth {
				kth = q
			}
		}
	} else {
		for _, q := range peaks {
			top = rank(top, k, q, copies)
		}
		if len(top) < k {
			return 0, false
		}
		kth = top[k-1]
	}
	if !(kth >= 0x1p-900 && kth <= 0x1p900) {
		return 0, false
	}
	return kth * (1 - 2*tieTol), true
}

// kthProb returns the k-th largest of the probabilities (scaledProb
// with factor c) of the amplitudes the view reads, each counted copies
// times, by value alone: a plain max at k = 1 and a bounded insertion
// selection in top above it. NaN never ranks; ok is false when every
// probability is NaN, and past the last other value the smallest of
// them stands in.
func (v batchView) kthProb(amps []complex128, k int, c float64, copies int, top []float64) (p float64, ok bool) {
	if k == 1 {
		p = -1
		for _, row := range v.rows(amps) {
			for _, a := range row {
				if q := scaledProb(a, c); q > p {
					p = q
				}
			}
		}
		return p, p >= 0
	}
	for _, row := range v.rows(amps) {
		for _, a := range row {
			top = rank(top, k, scaledProb(a, c), copies)
		}
	}
	if len(top) == 0 {
		return 0, false
	}
	return top[len(top)-1], true
}

// rank enters q, copies times, into top, the descending selection of
// the k largest values so far, and returns it; a full selection drops
// its smallest value for a larger q. NaN never ranks.
func rank(top []float64, k int, q float64, copies int) []float64 {
	for range copies {
		if math.IsNaN(q) || len(top) == k && !(q > top[k-1]) {
			break
		}
		top = append(top[:min(len(top), k-1)], q)
		for j := len(top) - 1; j > 0 && top[j-1] < q; j-- {
			top[j-1], top[j] = q, top[j-1]
		}
	}
	return top
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
	energy, _ := (&CostTables{Diag: table}).fold(0, 0, s.amps, 0)
	return energy
}
