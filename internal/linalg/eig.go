package linalg

import "math"

// SymEig is a cyclic Jacobi eigensolver for symmetric matrices of one
// fixed order. It owns its working matrix, its eigenvector rows and its
// eigenvalue buffer, so a decomposition allocates nothing, and it
// WARM-STARTS: every Decompose after the first rotates its input into the
// eigenbasis the previous call left behind before sweeping. Any
// orthogonal basis is a valid starting point, so the result never depends
// on the previous input for correctness — only the number of sweeps does.
// When successive inputs are close (the iterates of a converging
// splitting method), the rotated matrix is nearly diagonal and one or two
// sweeps finish the job instead of five.
//
// Jacobi is O(n³) per sweep but unconditionally stable and accurate for
// the modest orders (n ≲ a few hundred) used by the ADMM SDP solver; the
// large-graph path uses the factorization-free mixing method instead.
//
// A SymEig is not safe for concurrent use.
type SymEig struct {
	m    *Dense    // working matrix, diagonalized in place
	t    []float64 // n×n scratch for the change of basis
	vt   []float64 // Vᵀ row-major: row k is eigenvector k, so rotations run on contiguous slices
	w    []float64 // eigenvalues, ascending
	warm bool      // vt holds the basis of a previous decomposition
}

// NewSymEig allocates a solver for matrices of order n.
func NewSymEig(n int) *SymEig {
	return &SymEig{
		m:  NewDense(n),
		t:  make([]float64, n*n),
		vt: make([]float64, n*n),
		w:  make([]float64, n),
	}
}

// Values returns the eigenvalues of the last decomposition, ascending.
// The slice is owned by the solver and overwritten by the next call.
func (e *SymEig) Values() []float64 { return e.w }

// Vector returns eigenvector k of the last decomposition (unit norm,
// paired with Values()[k]) as a view into the solver's storage.
func (e *SymEig) Vector(k int) []float64 {
	n := e.m.N
	return e.vt[k*n : (k+1)*n]
}

// Decompose computes (a + aᵀ)/2 = V diag(w) Vᵀ; a is not modified. The
// sweeps stop once the largest off-diagonal entry is below 1e-13·‖a‖_F.
func (e *SymEig) Decompose(a *Dense) {
	n := e.m.N
	m := e.m
	m.CopyFrom(a) // panics on an order mismatch
	m.Symmetrize()
	// Convergence threshold relative to the matrix magnitude; taken
	// before the change of basis so warm and cold runs share it.
	scale := m.FrobeniusNorm()
	if scale == 0 {
		scale = 1
	}
	tol := 1e-13 * scale
	skip := tol / float64(n)

	if e.warm {
		e.changeBasis()
	} else {
		for i := range e.vt {
			e.vt[i] = 0
		}
		for i := 0; i < n; i++ {
			e.vt[i*n+i] = 1
		}
	}

	const maxSweeps = 100
	d := m.Data
	for sweep := 0; sweep < maxSweeps && m.MaxAbsOffDiag() > tol; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := d[p*n+q]
				if math.Abs(apq) <= skip {
					continue
				}
				app, aqq := d[p*n+p], d[q*n+q]
				// Rotation angle that annihilates A_pq.
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				// M ← JᵀMJ: rotate rows p and q, mirror them into
				// columns p and q, then write the 2×2 block in closed form.
				rp, rq := m.Row(p), m.Row(q)
				rotateRows(rp, rq, c, s)
				for k := 0; k < n; k++ {
					d[k*n+p] = rp[k]
					d[k*n+q] = rq[k]
				}
				d[p*n+p] = app - t*apq
				d[q*n+q] = aqq + t*apq
				d[p*n+q] = 0
				d[q*n+p] = 0
				// Vᵀ ← JᵀVᵀ accumulates the eigenvectors.
				rotateRows(e.Vector(p), e.Vector(q), c, s)
			}
		}
	}

	for i := 0; i < n; i++ {
		e.w[i] = d[i*n+i]
		// The basis outlives this call, and each rotation's c² + s² misses
		// 1 by a rounding error of one sign, so row norms would creep
		// linearly with the number of warm calls. Renormalizing pins them.
		ScaleVec(1/Norm2(e.Vector(i)), e.Vector(i))
	}
	e.sort()
	e.warm = true
}

// rotateRows applies the Givens rotation (x, y) ← (c·x − s·y, s·x + c·y)
// to two equal-length rows.
func rotateRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = c*xk - s*yk
		y[k] = s*xk + c*yk
	}
}

// changeBasis replaces the working matrix M by Vᵀ·M·V for the stored
// basis: T = Vᵀ·M by row axpys, then the upper triangle of T·V by row
// dot products, mirrored so M stays exactly symmetric.
func (e *SymEig) changeBasis() {
	n := e.m.N
	d := e.m.Data
	for i := 0; i < n; i++ {
		ti := e.t[i*n : (i+1)*n]
		for j := range ti {
			ti[j] = 0
		}
		for k, vik := range e.Vector(i) {
			Axpy(vik, e.m.Row(k), ti)
		}
	}
	for i := 0; i < n; i++ {
		ti := e.t[i*n : (i+1)*n]
		for j := i; j < n; j++ {
			v := Dot(ti, e.Vector(j))
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
}

// sort reorders eigenvalues ascending and permutes the eigenvector rows
// to match, using insertion sort (n is small and the data is nearly
// sorted after a warm start).
func (e *SymEig) sort() {
	n := len(e.w)
	for i := 1; i < n; i++ {
		for j := i; j > 0 && e.w[j] < e.w[j-1]; j-- {
			e.w[j], e.w[j-1] = e.w[j-1], e.w[j]
			a, b := e.Vector(j), e.Vector(j-1)
			for k := range a {
				a[k], b[k] = b[k], a[k]
			}
		}
	}
}

// ProjectPSD overwrites a with its projection onto the positive
// semidefinite cone (negative eigenvalues clipped to zero). This is the
// core primitive of the ADMM SDP solver.
func (e *SymEig) ProjectPSD(a *Dense) {
	e.Decompose(a)
	n := a.N
	if n == 0 || e.w[0] >= 0 {
		a.Symmetrize() // already PSD: keep the input, not a reconstruction
		return
	}
	// A_psd = V diag(max(w,0)) Vᵀ, upper triangle then mirror.
	for i := range a.Data {
		a.Data[i] = 0
	}
	for k, wk := range e.w {
		if wk <= 0 {
			continue
		}
		vk := e.Vector(k)
		for i, vik := range vk {
			if vik == 0 {
				continue
			}
			Axpy(wk*vik, vk[i:], a.Data[i*n+i:(i+1)*n])
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Data[j*n+i] = a.Data[i*n+j]
		}
	}
}

// GramFactor returns a rectangular matrix F (n rows) such that F Fᵀ ≈ A
// for a positive semidefinite A, using the eigendecomposition (columns
// scaled by sqrt of the clipped eigenvalues). Row i of F is the
// unit-ball embedding vector of SDP variable i, which is exactly what GW
// hyperplane rounding consumes. The number of columns equals the number
// of strictly positive eigenvalues (at least 1).
func (e *SymEig) GramFactor(a *Dense) *Mat {
	e.Decompose(a)
	n := a.N
	// Count positive eigenvalues (clip tiny negatives from round-off).
	tol := 1e-10 * math.Max(1, math.Abs(e.w[n-1]))
	cols := 0
	for _, wi := range e.w {
		if wi > tol {
			cols++
		}
	}
	if cols == 0 {
		cols = 1 // degenerate all-zero matrix: embed everything at origin
	}
	f := NewMat(n, cols)
	c := 0
	for k, wk := range e.w {
		if wk <= tol {
			continue
		}
		s := math.Sqrt(wk)
		for i, vik := range e.Vector(k) {
			f.Data[i*cols+c] = s * vik
		}
		c++
	}
	return f
}

// EigSym computes the full eigendecomposition A = V diag(w) Vᵀ of a
// symmetric matrix with a fresh (cold) SymEig. It returns the eigenvalues
// w (ascending) and the matrix V whose COLUMNS are the corresponding
// eigenvectors.
func EigSym(a *Dense) (w []float64, v *Dense) {
	n := a.N
	e := NewSymEig(n)
	e.Decompose(a)
	v = NewDense(n)
	for k := 0; k < n; k++ {
		for i, vik := range e.Vector(k) {
			v.Data[i*n+k] = vik
		}
	}
	return e.w, v
}

// ProjectPSD is SymEig.ProjectPSD on a fresh solver, for one-off use.
func ProjectPSD(a *Dense) { NewSymEig(a.N).ProjectPSD(a) }

// GramFactor is SymEig.GramFactor on a fresh solver, for one-off use.
func GramFactor(a *Dense) *Mat { return NewSymEig(a.N).GramFactor(a) }
