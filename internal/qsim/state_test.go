package qsim

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"qaoa2/internal/rng"
)

const tol = 1e-12

// The Pauli matrices, applied through Apply1Q: X prepares the basis
// states of the state, measure and peaks tests.
var (
	pauliX = [2][2]complex128{{0, 1}, {1, 0}}
	pauliY = [2][2]complex128{{0, -1i}, {1i, 0}}
	pauliZ = [2][2]complex128{{1, 0}, {0, -1}}
)

func cEq(a, b complex128, eps float64) bool {
	return cmplx.Abs(a-b) <= eps
}

func TestNewStateIsGround(t *testing.T) {
	s, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 8 || s.n != 3 {
		t.Fatalf("len=%d n=%d", s.Len(), s.n)
	}
	if !cEq(s.Amp(0), 1, tol) {
		t.Fatalf("amp0=%v", s.Amp(0))
	}
	if math.Abs(s.NormSquared()-1) > tol {
		t.Fatalf("norm²=%v", s.NormSquared())
	}
}

func TestNewStateRejectsBadSizes(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Fatal("0 qubits accepted")
	}
	if _, err := NewState(MaxQubits + 1); err == nil {
		t.Fatal("oversized state accepted")
	}
}

func TestPlusStateUniform(t *testing.T) {
	s, err := NewPlusState(4)
	if err != nil {
		t.Fatal(err)
	}
	want := complex(0.25, 0)
	for i := 0; i < s.Len(); i++ {
		if !cEq(s.Amp(uint64(i)), want, tol) {
			t.Fatalf("amp %d = %v", i, s.Amp(uint64(i)))
		}
	}
}

func TestHTwiceIsIdentity(t *testing.T) {
	s, _ := NewState(2)
	s.ApplyH(0)
	s.ApplyH(1)
	s.ApplyH(0)
	s.ApplyH(1)
	if !cEq(s.Amp(0), 1, 1e-10) {
		t.Fatalf("H² != I: amp0=%v", s.Amp(0))
	}
}

func TestBellState(t *testing.T) {
	s, _ := NewState(2)
	s.ApplyH(0)
	s.ApplyCNOT(0, 1)
	inv := complex(1/math.Sqrt2, 0)
	if !cEq(s.Amp(0b00), inv, tol) || !cEq(s.Amp(0b11), inv, tol) {
		t.Fatalf("bell amps %v %v", s.Amp(0), s.Amp(3))
	}
	if !cEq(s.Amp(0b01), 0, tol) || !cEq(s.Amp(0b10), 0, tol) {
		t.Fatalf("bell cross terms %v %v", s.Amp(1), s.Amp(2))
	}
}

func TestXFlipsBit(t *testing.T) {
	s, _ := NewState(3)
	s.Apply1Q(1, pauliX)
	if !cEq(s.Amp(0b010), 1, tol) {
		t.Fatalf("X did not flip qubit 1: %v", s.amps)
	}
}

func TestCNOTControlOff(t *testing.T) {
	s, _ := NewState(2)
	s.ApplyCNOT(0, 1) // control qubit 0 is |0>, no action
	if !cEq(s.Amp(0), 1, tol) {
		t.Fatal("CNOT fired with control off")
	}
	s.Apply1Q(0, pauliX)
	s.ApplyCNOT(0, 1)
	if !cEq(s.Amp(0b11), 1, tol) {
		t.Fatalf("CNOT did not fire with control on: %v", s.amps)
	}
}

func TestRZZPhases(t *testing.T) {
	theta := 0.7
	s, _ := NewState(2)
	s.ApplyRZZ(0, 1, theta)
	// |00>: bits equal, phase e^{-iθ/2}.
	if !cEq(s.Amp(0), cmplx.Exp(complex(0, -theta/2)), tol) {
		t.Fatalf("RZZ on |00>: %v", s.Amp(0))
	}
	s2, _ := NewState(2)
	s2.Apply1Q(0, pauliX)
	s2.ApplyRZZ(0, 1, theta)
	if !cEq(s2.Amp(1), cmplx.Exp(complex(0, theta/2)), tol) {
		t.Fatalf("RZZ on |01>: %v", s2.Amp(1))
	}
}

func TestRZPhases(t *testing.T) {
	theta := 1.1
	s, _ := NewState(1)
	s.ApplyH(0)
	s.ApplyRZ(0, theta)
	if !cEq(s.Amp(0), complex(1/math.Sqrt2, 0)*cmplx.Exp(complex(0, -theta/2)), tol) {
		t.Fatalf("RZ zero branch %v", s.Amp(0))
	}
	if !cEq(s.Amp(1), complex(1/math.Sqrt2, 0)*cmplx.Exp(complex(0, theta/2)), tol) {
		t.Fatalf("RZ one branch %v", s.Amp(1))
	}
}

func TestRXPiIsMinusIX(t *testing.T) {
	s, _ := NewState(1)
	s.ApplyRX(0, math.Pi)
	// RX(π)|0> = -i|1>.
	if !cEq(s.Amp(1), complex(0, -1), tol) {
		t.Fatalf("RX(π)|0> = %v", s.Amp(1))
	}
}

func TestRYRotation(t *testing.T) {
	// RY(θ) = RZ(π/2)·RX(θ)·RZ(-π/2): the RZ conjugation turns the X axis
	// into the Y axis, which pins the relative conventions of RX and RZ.
	s, _ := NewState(1)
	s.ApplyRZ(0, -math.Pi/2)
	s.ApplyRX(0, math.Pi/2)
	s.ApplyRZ(0, math.Pi/2)
	// RY(π/2)|0> = (|0>+|1>)/√2.
	inv := complex(1/math.Sqrt2, 0)
	if !cEq(s.Amp(0), inv, tol) || !cEq(s.Amp(1), inv, tol) {
		t.Fatalf("RY(π/2)|0> = %v, %v", s.Amp(0), s.Amp(1))
	}
}

func TestZAndCZSigns(t *testing.T) {
	// CZ = H_t·CNOT(c, t)·H_t.
	s, _ := NewPlusState(2)
	s.ApplyH(1)
	s.ApplyCNOT(0, 1)
	s.ApplyH(1)
	if !cEq(s.Amp(0b11), complex(-0.5, 0), tol) {
		t.Fatalf("CZ |11> sign: %v", s.Amp(3))
	}
	if !cEq(s.Amp(0b01), complex(0.5, 0), tol) {
		t.Fatalf("CZ |01>: %v", s.Amp(1))
	}
	s2, _ := NewPlusState(1)
	s2.Apply1Q(0, pauliZ)
	if !cEq(s2.Amp(1), complex(-1/math.Sqrt2, 0), tol) {
		t.Fatalf("Z |1> branch: %v", s2.Amp(1))
	}
}

func TestSwap(t *testing.T) {
	s, _ := NewState(3)
	s.Apply1Q(0, pauliX) // |001>
	s.ApplySwap(0, 2)
	if !cEq(s.Amp(0b100), 1, tol) {
		t.Fatalf("swap failed: %v", s.amps)
	}
	s.ApplySwap(1, 1) // no-op
	if !cEq(s.Amp(0b100), 1, tol) {
		t.Fatal("self-swap changed state")
	}
}

// apply2Q is a reference two-qubit gate: it applies the 4x4 matrix m to
// qubits (q1, q2) with basis index v = (bit q2)<<1 | (bit q1), by a plain
// matrix-vector product over every quadruple of amplitudes.
func apply2Q(s *State, q1, q2 int, m [4][4]complex128) {
	b1 := uint64(1) << uint(q1)
	b2 := uint64(1) << uint(q2)
	for i := range s.amps {
		base := uint64(i)
		if base&(b1|b2) != 0 {
			continue
		}
		idx := [4]uint64{base, base | b1, base | b2, base | b1 | b2}
		var in [4]complex128
		for v := range idx {
			in[v] = s.amps[idx[v]]
		}
		for v := range idx {
			var acc complex128
			for w := range in {
				acc += m[v][w] * in[w]
			}
			s.amps[idx[v]] = acc
		}
	}
}

func TestApply2QMatchesCNOT(t *testing.T) {
	// CNOT with control=first operand, target=second, basis v=(t<<1)|c.
	var m [4][4]complex128
	m[0][0] = 1
	m[3][1] = 1
	m[2][2] = 1
	m[1][3] = 1
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}} {
		a, _ := NewPlusState(3)
		b := a.Clone()
		a.ApplyRZ(0, 0.3) // make the state non-trivial
		b.ApplyRZ(0, 0.3)
		a.ApplyRZZ(pair[0], pair[1], 0.5)
		b.ApplyRZZ(pair[0], pair[1], 0.5)
		a.ApplyCNOT(pair[0], pair[1])
		apply2Q(b, pair[0], pair[1], m)
		for i := 0; i < a.Len(); i++ {
			if !cEq(a.Amp(uint64(i)), b.Amp(uint64(i)), 1e-10) {
				t.Fatalf("pair %v: amp %d differs: %v vs %v", pair, i, a.Amp(uint64(i)), b.Amp(uint64(i)))
			}
		}
	}
}

func TestGatesPreserveNorm(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s, _ := NewPlusState(5)
		for k := 0; k < 30; k++ {
			q := r.Intn(5)
			p := r.Intn(5)
			for p == q {
				p = r.Intn(5)
			}
			theta := (r.Float64() - 0.5) * 4 * math.Pi
			switch r.Intn(7) {
			case 0:
				s.ApplyH(q)
			case 1:
				s.Apply1Q(q, pauliX)
			case 2:
				s.ApplyRX(q, theta)
			case 3:
				s.ApplyRZ(q, theta)
			case 4:
				s.ApplyRZZ(q, p, theta)
			case 5:
				s.ApplyCNOT(q, p)
			case 6:
				s.Apply1Q(q, pauliY)
			}
		}
		return math.Abs(s.NormSquared()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFidelity(t *testing.T) {
	a, _ := NewPlusState(3)
	b := a.Clone()
	if f := Fidelity(a, b); math.Abs(f-1) > tol {
		t.Fatalf("self fidelity %v", f)
	}
	b.Apply1Q(0, pauliZ)
	if f := Fidelity(a, b); f > 0.999 {
		t.Fatalf("orthogonalish states fidelity %v", f)
	}
}

func TestGateValidation(t *testing.T) {
	s, _ := NewState(2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("qubit range", func() { s.ApplyH(2) })
	mustPanic("negative qubit", func() { s.Apply1Q(-1, pauliX) })
	mustPanic("RZZ same qubit", func() { s.ApplyRZZ(1, 1, 0.1) })
	mustPanic("CNOT same qubit", func() { s.ApplyCNOT(0, 0) })
}

func TestParallelKernelMatchesSerial(t *testing.T) {
	// A state big enough to engage the kernel pool must produce the
	// same result as small-state (serial) logic; verify H on every qubit
	// yields the uniform superposition.
	n := 15 // 32768 amplitudes ≥ parallelThreshold
	s, _ := NewState(n)
	for q := 0; q < n; q++ {
		s.ApplyH(q)
	}
	want := complex(1/math.Sqrt(float64(s.Len())), 0)
	for i := 0; i < s.Len(); i += 997 {
		if !cEq(s.Amp(uint64(i)), want, 1e-10) {
			t.Fatalf("parallel H wall: amp %d = %v want %v", i, s.Amp(uint64(i)), want)
		}
	}
}
