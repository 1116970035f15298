package linalg

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIdentityProperties(t *testing.T) {
	id := NewMat(4, 4)
	for i := 0; i < id.Rows; i++ {
		id.Set(i, i, 1)
	}
	if id.FrobeniusNorm() != 2 {
		t.Fatalf("‖I4‖_F = %v", id.FrobeniusNorm())
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
}
