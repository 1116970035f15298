package linalg

import "math"

// SolveLinear solves A x = b for a general square A using Gaussian
// elimination with partial pivoting, returning false if A is singular
// (within a scaled tolerance). A and b are left unmodified.
func SolveLinear(a *Mat, b []float64) ([]float64, bool) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("linalg: dimension mismatch in SolveLinear")
	}
	// Working copies.
	m := a.Clone()
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-12*math.Max(1, m.FrobeniusNorm()/float64(n)) {
			return nil, false
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				vp, vc := m.At(pivot, c), m.At(col, c)
				m.Set(pivot, c, vc)
				m.Set(col, c, vp)
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		// Eliminate below.
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Add(r, c, -f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m.At(r, c) * x[c]
		}
		x[r] = s / m.At(r, r)
	}
	return x, true
}
