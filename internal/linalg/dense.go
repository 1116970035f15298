// Package linalg implements the small dense linear-algebra kernel the
// repository needs: vectors, square and rectangular matrices and a
// pivoted linear solve. The Goemans-Williamson substrate (internal/sdp,
// internal/gw) keeps its embeddings in a Mat and its dual slack in a
// Dense, and the module must build offline with the standard library
// only.
//
// The types are deliberately plain (flat float64 slices, row-major) so
// hot loops run on contiguous slices.
package linalg

import "math"

// Dense is a square row-major matrix of order N.
type Dense struct {
	N    int
	Data []float64 // len N*N, Data[i*N+j] = A_ij
}

// NewDense allocates an n-by-n zero matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// At returns A_ij.
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.N+j] }

// Set assigns A_ij = v.
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.N+j] = v }

// Add accumulates A_ij += v.
func (a *Dense) Add(i, j int, v float64) { a.Data[i*a.N+j] += v }

// Clone returns a deep copy of a.
func (a *Dense) Clone() *Dense {
	b := NewDense(a.N)
	copy(b.Data, a.Data)
	return b
}

// Row returns a view of row i (mutations are visible in a).
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.N : (i+1)*a.N] }

// FrobeniusNorm returns ||a||_F.
func (a *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MatVec computes y = A x. y must have length N.
func (a *Dense) MatVec(x, y []float64) {
	n := a.N
	if len(x) != n || len(y) != n {
		panic("linalg: dimension mismatch in MatVec")
	}
	for i := 0; i < n; i++ {
		row := a.Row(i)
		s := 0.0
		for j, xv := range x {
			s += row[j] * xv
		}
		y[i] = s
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: dimension mismatch in Dot")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += c*x.
func Axpy(c float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: dimension mismatch in Axpy")
	}
	for i, v := range x {
		y[i] += c * v
	}
}
