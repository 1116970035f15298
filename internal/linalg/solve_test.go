package linalg

import (
	"math"
	"testing"

	"qaoa2/internal/rng"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	// [[2,1],[1,3]] x = [5,10] → x = [1,3].
	a := NewMat(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, ok := SolveLinear(a, []float64{5, 10})
	if !ok {
		t.Fatal("solver failed")
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
	// Inputs must be unmodified.
	if a.At(0, 0) != 2 || a.At(1, 1) != 3 {
		t.Fatal("SolveLinear mutated A")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero leading entry forces a row swap.
	a := NewMat(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, ok := SolveLinear(a, []float64{2, 3})
	if !ok {
		t.Fatal("pivoting solve failed")
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewMat(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // rank 1
	if _, ok := SolveLinear(a, []float64{1, 2}); ok {
		t.Fatal("singular system solved")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(8)
		a := NewMat(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		a.MatVec(want, b)
		x, ok := SolveLinear(a, b)
		if !ok {
			continue // random singular matrix: astronomically unlikely but legal
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, x[i], want[i])
			}
		}
	}
}

func TestSolveLinearDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	SolveLinear(NewMat(2, 2), []float64{1})
}

func TestDenseAccessors(t *testing.T) {
	// The square case the SDP dual slack and the linear solves use.
	a := NewMat(3, 3)
	a.Set(1, 2, 5)
	a.Add(1, 2, 2)
	if a.At(1, 2) != 7 {
		t.Fatalf("At/Set/Add broken: %v", a.At(1, 2))
	}
	row := a.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row view: %v", row)
	}
	b := a.Clone()
	b.Set(1, 2, 14)
	if a.At(1, 2) != 7 || b.At(1, 2) != 14 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatVecDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on MatVec mismatch")
		}
	}()
	NewMat(2, 2).MatVec([]float64{1}, []float64{1, 2})
}

func TestMatAccessorsAndClone(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 4)
	if m.At(1, 2) != 4 {
		t.Fatal("Mat At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Mat clone shares storage")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 4 {
		t.Fatalf("Mat row view %v", m.Row(1))
	}
	y := make([]float64, 2)
	m.MatVec([]float64{1, 2, 3}, y)
	if y[0] != 0 || y[1] != 12 {
		t.Fatalf("2x3 MatVec = %v, want [0 12]", y)
	}
}
