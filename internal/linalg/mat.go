// Package linalg implements the small dense linear-algebra kernel the
// repository needs: vectors, row-major matrices and a pivoted linear
// solve. The Goemans-Williamson substrate (internal/sdp, internal/gw)
// keeps its embeddings and its dual slack in a Mat, and the module must
// build offline with the standard library only.
//
// The types are deliberately plain (flat float64 slices, row-major) so
// hot loops run on contiguous slices.
package linalg

import "math"

// Mat is a row-major matrix: rectangular for factor matrices
// (Burer-Monteiro embeddings), square for the Laplacian, the dual slack
// and linear systems.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j]
}

// NewMat allocates an r-by-c zero matrix.
func NewMat(r, c int) *Mat {
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Row returns a view of row i (mutations are visible in m).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns M_ij.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns M_ij = v.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates M_ij += v.
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// FrobeniusNorm returns ||m||_F.
func (m *Mat) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MatVec computes y = M x. x must have length Cols and y length Rows.
func (m *Mat) MatVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("linalg: dimension mismatch in MatVec")
	}
	for i := range y {
		y[i] = Dot(m.Row(i), x)
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
