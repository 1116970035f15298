package linalg

// Mat is a rectangular row-major matrix. It complements the square Dense
// type for factor matrices (Burer-Monteiro embeddings).
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j]
}

// NewMat allocates an r-by-c zero matrix.
func NewMat(r, c int) *Mat {
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Row returns a view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns M_ij.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns M_ij = v.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}
