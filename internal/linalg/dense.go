// Package linalg implements the small dense linear-algebra kernel the
// repository needs: vectors, square matrices, a cyclic Jacobi symmetric
// eigensolver and a pivoted linear solve. It exists because the
// Goemans-Williamson substrate (internal/sdp, internal/gw) requires a
// positive-semidefinite projection and a Gram factorization, and the
// module must build offline with the standard library only.
//
// The types are deliberately plain (flat float64 slices, row-major) so
// hot loops run on contiguous slices, and the one stateful type, SymEig,
// owns every buffer it needs so a solver loop allocates nothing per
// iteration.
package linalg

import (
	"fmt"
	"math"
)

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

// CopyFrom overwrites a with b. The orders must match.
func (a *Dense) CopyFrom(b *Dense) {
	if a.N != b.N {
		panic(fmt.Sprintf("linalg: order mismatch %d != %d", a.N, b.N))
	}
	copy(a.Data, b.Data)
}

// Row returns a view of row i (mutations are visible in a).
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.N : (i+1)*a.N] }

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Symmetrize replaces a with (a + aᵀ)/2, removing numerical asymmetry
// accumulated by iterative solvers.
func (a *Dense) Symmetrize() {
	n := a.N
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (a.At(i, j) + a.At(j, i))
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
}

// MaxAbsOffDiag returns the largest |A_ij|, i != j. Used as the Jacobi
// sweep termination criterion.
func (a *Dense) MaxAbsOffDiag() float64 {
	max := 0.0
	for i := 0; i < a.N; i++ {
		for j, v := range a.Row(i) {
			if v = math.Abs(v); v > max && j != i {
				max = v
			}
		}
	}
	return max
}

// FrobeniusNorm returns ||a||_F.
func (a *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Scale multiplies every entry by c in place.
func (a *Dense) Scale(c float64) {
	for i := range a.Data {
		a.Data[i] *= c
	}
}

// AxpyMat accumulates a += c*b in place.
func (a *Dense) AxpyMat(c float64, b *Dense) {
	if a.N != b.N {
		panic("linalg: order mismatch in AxpyMat")
	}
	for i := range a.Data {
		a.Data[i] += c * b.Data[i]
	}
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

// ScaleVec multiplies x by c in place.
func ScaleVec(c float64, x []float64) {
	for i := range x {
		x[i] *= c
	}
}
