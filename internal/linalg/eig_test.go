package linalg

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/rng"
)

// checkDecomposition verifies the three properties every SymEig result
// must have, cold or warm: V diag(w) Vᵀ reconstructs a to 1e-11·‖a‖_F,
// the eigenvectors are orthonormal to 1e-12 (both Frobenius), and the
// eigenvalues ascend.
func checkDecomposition(t *testing.T, label string, e *SymEig, a *Dense) {
	t.Helper()
	n := a.N
	w := e.Values()
	for k := 1; k < n; k++ {
		if w[k] < w[k-1] {
			t.Fatalf("%s: eigenvalues not ascending: %v", label, w)
		}
	}
	var recErr, orthErr float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rec, dot := 0.0, 0.0
			for k := 0; k < n; k++ {
				rec += w[k] * e.Vector(k)[i] * e.Vector(k)[j]
			}
			dot = Dot(e.Vector(i), e.Vector(j))
			if i == j {
				dot--
			}
			d := rec - a.At(i, j)
			recErr += d * d
			orthErr += dot * dot
		}
	}
	if recErr = math.Sqrt(recErr); recErr > 1e-11*a.FrobeniusNorm() {
		t.Fatalf("%s: ‖V diag(w) Vᵀ − A‖ = %g, ‖A‖ = %g", label, recErr, a.FrobeniusNorm())
	}
	if orthErr = math.Sqrt(orthErr); orthErr > 1e-12 {
		t.Fatalf("%s: ‖VVᵀ − I‖ = %g", label, orthErr)
	}
}

type eigCase struct {
	name string
	a    *Dense
}

// eigCases builds the input families of the property test for order n:
// generic, repeated eigenvalues (a multiple of I plus a rank-one term),
// rank-deficient (Gram matrix of fewer than n vectors) and all-zero.
func eigCases(r *rng.Rand, n int) []eigCase {
	repeated := NewDense(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			repeated.Set(i, j, x[i]*x[j])
		}
		repeated.Add(i, i, 2.5)
	}
	low := NewMat(n, (n+1)/2)
	for i := range low.Data {
		low.Data[i] = r.NormFloat64()
	}
	return []eigCase{
		{"random", randomSym(r, n)},
		{"repeated", repeated},
		{"rank-deficient", low.Gram()},
		{"zero", NewDense(n)},
	}
}

func TestSymEigColdAndWarm(t *testing.T) {
	r := rng.New(2024)
	for _, n := range []int{1, 2, 3, 5, 8, 16, 30} {
		for _, c := range eigCases(r, n) {
			a := c.a
			label := fmt.Sprintf("n=%d %s", n, c.name)
			e := NewSymEig(n)
			e.Decompose(a)
			checkDecomposition(t, label+" cold", e, a)

			// A warm sequence: perturbations shrinking from 1e-1 to
			// 1e-9, as the iterates of a converging solver do.
			b := a.Clone()
			for step, eps := 0, 1e-1; step < 9; step, eps = step+1, eps/10 {
				b.CopyFrom(a)
				b.AxpyMat(eps, randomSym(r, n))
				e.Decompose(b)
				checkDecomposition(t, fmt.Sprintf("%s warm step %d", label, step), e, b)
			}
			// And a jump to an unrelated matrix: the stored basis is
			// then a poor start, never a wrong one.
			far := randomSym(r, n)
			e.Decompose(far)
			checkDecomposition(t, label+" warm jump", e, far)
		}
	}
}

func TestSymEigWarmMatchesColdValues(t *testing.T) {
	r := rng.New(77)
	a := randomSym(r, 12)
	e := NewSymEig(12)
	e.Decompose(randomSym(r, 12)) // leave an unrelated basis behind
	e.Decompose(a)
	cold, _ := EigSym(a)
	for k, w := range e.Values() {
		if math.Abs(w-cold[k]) > 1e-12*a.FrobeniusNorm() {
			t.Fatalf("eigenvalue %d: warm %v cold %v", k, w, cold[k])
		}
	}
}

// TestSymEigBasisDoesNotDrift runs a warm sequence longer than an ADMM
// solve at its default cap, with perturbations large enough that every
// call sweeps twice, and requires the accumulated eigenbasis to stay
// orthonormal: rotations compound across calls, so this is the one place
// round-off builds up (without the row renormalization in Decompose the
// defect here is 8e-12; with it, 3e-13).
func TestSymEigBasisDoesNotDrift(t *testing.T) {
	r := rng.New(5)
	n := 16
	a := randomSym(r, n)
	e := NewSymEig(n)
	for step := 0; step < 1000; step++ {
		a.AxpyMat(1e-3, randomSym(r, n))
		e.Decompose(a)
	}
	checkDecomposition(t, "after 1000 warm steps", e, a)
}

func TestSymEigDoesNotModifyInputAndSymmetrizes(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 2) // (a+aᵀ)/2 has off-diagonal 1: eigenvalues 1 and 3
	a.Set(1, 1, 2)
	want := a.Clone()
	e := NewSymEig(2)
	e.Decompose(a)
	for i := range a.Data {
		if a.Data[i] != want.Data[i] {
			t.Fatalf("Decompose modified its input: %v", a.Data)
		}
	}
	if w := e.Values(); !almostEq(w[0], 1, 1e-12) || !almostEq(w[1], 3, 1e-12) {
		t.Fatalf("eigenvalues %v want [1 3]", w)
	}
}

func TestSymEigOrderMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("order mismatch accepted")
		}
	}()
	NewSymEig(3).Decompose(NewDense(4))
}

func TestSymEigProjectPSDSteadyStateAllocatesNothing(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{5, 16} {
		src := randomSym(r, n)
		work := NewDense(n)
		e := NewSymEig(n)
		allocs := testing.AllocsPerRun(50, func() {
			work.CopyFrom(src)
			e.ProjectPSD(work)
		})
		if allocs != 0 {
			t.Fatalf("n=%d: %v allocations per steady-state ProjectPSD", n, allocs)
		}
	}
}

func TestSymEigProjectPSDMatchesColdProjection(t *testing.T) {
	r := rng.New(13)
	n := 10
	e := NewSymEig(n)
	for trial := 0; trial < 6; trial++ {
		src := randomSym(r, n)
		warm, cold := src.Clone(), src.Clone()
		e.ProjectPSD(warm)
		ProjectPSD(cold)
		for i := range warm.Data {
			if !almostEq(warm.Data[i], cold.Data[i], 1e-11*src.FrobeniusNorm()) {
				t.Fatalf("trial %d entry %d: warm %v cold %v", trial, i, warm.Data[i], cold.Data[i])
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if warm.At(i, j) != warm.At(j, i) {
					t.Fatalf("projection not exactly symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

// BenchmarkProjectPSDLeaf is the ADMM inner step at the sizes QAOA²
// leaves have (MaxQubits 16, median part 5): a warm solver projecting a
// slowly moving matrix.
func BenchmarkProjectPSDLeaf(b *testing.B) {
	for _, n := range []int{5, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(3)
			src, step := randomSym(r, n), randomSym(r, n)
			step.Scale(1e-4)
			work := NewDense(n)
			e := NewSymEig(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.AxpyMat(1, step)
				work.CopyFrom(src)
				e.ProjectPSD(work)
			}
		})
	}
}
