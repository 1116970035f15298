package qsim

// This file holds the cost diagonal of the fused diagonal-cost execution
// path (internal/backend's FusedBackend): the MaxCut cost Hamiltonian is
// diagonal in the computational basis, so a whole e^{-iγ H_C} layer
// collapses to one element-wise phase pass over the statevector instead
// of a per-edge RZZ gate walk.

import "math"

// CostTables is a cost diagonal in the form the fused engine reads. The
// INDEXED form factors it through its distinct values: entry i has phase
// diagonal Levels[Idx[i]] and expectation Values[Idx[i]], so a layer
// costs one Sincos per level and the energy fold reads the same 4-byte
// index the phase pass streams. The DENSE form (the fallback for
// diagonals with too many distinct values) holds the phase diagonal
// Shift[i] and the expectation Diag[i] per entry. Exactly one form is
// set.
type CostTables struct {
	Levels []float64 // phase value of each level (indexed form)
	Values []float64 // expectation value of each level, ascending (indexed form)
	Idx    []int32   // level of each entry (indexed form)
	Diag   []float64 // expectation diagonal (dense form)
	Shift  []float64 // phase diagonal (dense form)
}

// fold returns acc + Σ|buf[i]|²·D[off+i], accumulated in index order,
// where D is the expectation diagonal the tables hold, and the larger of
// peak and the largest |buf[i]|², both as float64 bits: the engine's
// batch peaks (State.peaks) come out of the energy's own pass. A
// nonnegative float orders as its bits, so the max is one integer
// compare; a NaN |buf[i]|² orders above every number and makes the peak
// NaN.
func (t *CostTables) fold(acc float64, peak uint64, buf []complex128, off int) (float64, uint64) {
	if t.Idx != nil {
		idx := t.Idx[off : off+len(buf)]
		values := t.Values
		for i, a := range buf {
			re, im := real(a), imag(a)
			q := re*re + im*im
			acc += q * values[idx[i]]
			peak = max(peak, math.Float64bits(q))
		}
		return acc, peak
	}
	d := t.Diag[off : off+len(buf)]
	for i, a := range buf {
		re, im := real(a), imag(a)
		q := re*re + im*im
		acc += q * d[i]
		peak = max(peak, math.Float64bits(q))
	}
	return acc, peak
}
