package qsim

// This file holds the cost diagonal of the fused diagonal-cost execution
// path (internal/backend's FusedBackend): the MaxCut cost Hamiltonian is
// diagonal in the computational basis, so a whole e^{-iγ H_C} layer
// collapses to one element-wise phase pass over the statevector instead
// of a per-edge RZZ gate walk.

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
// where D is the expectation diagonal the tables hold.
func (t *CostTables) fold(acc float64, buf []complex128, off int) float64 {
	if t.Idx != nil {
		idx := t.Idx[off : off+len(buf)]
		values := t.Values
		for i, a := range buf {
			re, im := real(a), imag(a)
			acc += (re*re + im*im) * values[idx[i]]
		}
		return acc
	}
	d := t.Diag[off : off+len(buf)]
	for i, a := range buf {
		re, im := real(a), imag(a)
		acc += (re*re + im*im) * d[i]
	}
	return acc
}
