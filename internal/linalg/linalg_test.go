package linalg

import (
	"math"
	"testing"

	"qaoa2/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomSym(r *rng.Rand, n int) *Dense {
	a := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestIdentityProperties(t *testing.T) {
	id := Identity(4)
	trace := 0.0
	for i := 0; i < id.N; i++ {
		trace += id.At(i, i)
	}
	if trace != 4 {
		t.Fatalf("trace of I4 = %v", trace)
	}
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	id.MatVec(x, y)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("I x != x: %v", y)
		}
	}
}

func TestEigSymDiagonal(t *testing.T) {
	a := NewDense(3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 2)
	w, _ := EigSym(a)
	want := []float64{-1, 2, 3}
	for i := range want {
		if !almostEq(w[i], want[i], 1e-12) {
			t.Fatalf("eigenvalues %v want %v", w, want)
		}
	}
}

func TestEigSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewDense(2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	w, v := EigSym(a)
	if !almostEq(w[0], 1, 1e-12) || !almostEq(w[1], 3, 1e-12) {
		t.Fatalf("eigenvalues %v want [1 3]", w)
	}
	// Check A v = w v for each eigenpair.
	for k := 0; k < 2; k++ {
		x := []float64{v.At(0, k), v.At(1, k)}
		y := make([]float64, 2)
		a.MatVec(x, y)
		for i := range x {
			if !almostEq(y[i], w[k]*x[i], 1e-10) {
				t.Fatalf("A v != w v for eigenpair %d", k)
			}
		}
	}
}

func TestEigSymReconstruction(t *testing.T) {
	r := rng.New(99)
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randomSym(r, n)
		w, v := EigSym(a)
		// Reconstruct V diag(w) Vᵀ and compare to A.
		rec := NewDense(n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					rec.Add(i, j, w[k]*v.At(i, k)*v.At(j, k))
				}
			}
		}
		diff := 0.0
		for i := range a.Data {
			diff = math.Max(diff, math.Abs(a.Data[i]-rec.Data[i]))
		}
		if diff > 1e-9 {
			t.Fatalf("n=%d reconstruction error %v", n, diff)
		}
	}
}

func TestEigSymOrthonormalVectors(t *testing.T) {
	r := rng.New(123)
	a := randomSym(r, 10)
	_, v := EigSym(a)
	n := a.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += v.At(k, i) * v.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if !almostEq(dot, want, 1e-9) {
				t.Fatalf("eigenvector columns %d,%d not orthonormal: %v", i, j, dot)
			}
		}
	}
}

func TestEigSymEigenvaluesSorted(t *testing.T) {
	r := rng.New(5)
	a := randomSym(r, 15)
	w, _ := EigSym(a)
	for i := 1; i < len(w); i++ {
		if w[i] < w[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", w)
		}
	}
}

func TestProjectPSDMakesPSD(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 5; trial++ {
		a := randomSym(r, 8)
		ProjectPSD(a)
		w, _ := EigSym(a)
		if w[0] < -1e-9 {
			t.Fatalf("projection not PSD: min eigenvalue %v", w[0])
		}
	}
}

func TestProjectPSDIdempotentOnPSD(t *testing.T) {
	// A PSD matrix must be unchanged by projection.
	r := rng.New(31)
	f := NewMat(6, 3)
	for i := range f.Data {
		f.Data[i] = r.NormFloat64()
	}
	a := f.Gram()
	b := a.Clone()
	ProjectPSD(b)
	for i := range a.Data {
		if !almostEq(a.Data[i], b.Data[i], 1e-8) {
			t.Fatalf("PSD projection moved a PSD matrix at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

func TestProjectPSDIsNearestInSimpleCase(t *testing.T) {
	// diag(2, -3) projects to diag(2, 0).
	a := NewDense(2)
	a.Set(0, 0, 2)
	a.Set(1, 1, -3)
	ProjectPSD(a)
	if !almostEq(a.At(0, 0), 2, 1e-12) || !almostEq(a.At(1, 1), 0, 1e-12) {
		t.Fatalf("projection of diag(2,-3) = %v", a.Data)
	}
}

func TestGramFactorReconstructs(t *testing.T) {
	r := rng.New(41)
	n := 10
	src := NewMat(n, 4)
	for i := range src.Data {
		src.Data[i] = r.NormFloat64()
	}
	a := src.Gram()
	f := GramFactor(a)
	if f.Rows != n {
		t.Fatalf("GramFactor rows = %d want %d", f.Rows, n)
	}
	g := f.Gram()
	for i := range a.Data {
		if !almostEq(a.Data[i], g.Data[i], 1e-8) {
			t.Fatalf("FFᵀ differs from A at %d: %v vs %v", i, g.Data[i], a.Data[i])
		}
	}
	if f.Cols > 4+1 {
		t.Fatalf("GramFactor rank %d exceeds true rank 4", f.Cols)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	if !almostEq(Norm2(x), math.Sqrt(14), 1e-15) {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v", y)
		}
	}
	ScaleVec(0.5, y)
	want = []float64{3, 4.5, 6}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("ScaleVec result %v", y)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 1, 2)
	a.Set(1, 0, 4)
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize result %v", a.Data)
	}
}

func TestMatGramShape(t *testing.T) {
	m := NewMat(3, 2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	m.Set(2, 0, 1)
	m.Set(2, 1, 1)
	g := m.Gram()
	if g.N != 3 {
		t.Fatalf("Gram order %d", g.N)
	}
	if g.At(0, 2) != 1 || g.At(2, 2) != 2 || g.At(0, 1) != 0 {
		t.Fatalf("Gram content wrong: %v", g.Data)
	}
}

func BenchmarkEigSym30(b *testing.B) {
	r := rng.New(1)
	a := randomSym(r, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigSym(a)
	}
}

func BenchmarkProjectPSD50(b *testing.B) {
	r := rng.New(2)
	src := randomSym(r, 50)
	work := NewDense(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(src)
		ProjectPSD(work)
	}
}
