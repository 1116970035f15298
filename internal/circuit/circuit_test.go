package circuit

import (
	"math"
	"testing"

	"qaoa2/internal/qsim"
	"qaoa2/internal/rng"
)

func TestBuilderAndCounts(t *testing.T) {
	c := New(3)
	c.AddH(0).AddH(1).AddH(2)
	c.AddRZZ(0, 1, 0.5).AddRZZ(1, 2, 0.5)
	c.AddRX(0, 0.3).AddRX(1, 0.3).AddRX(2, 0.3)
	if len(c.Gates) != 8 {
		t.Fatalf("gate count %d", len(c.Gates))
	}
	if c.TwoQubitCount() != 2 {
		t.Fatalf("two-qubit count %d", c.TwoQubitCount())
	}
	counts := c.GateCounts()
	if counts[H] != 3 || counts[RZZ] != 2 || counts[RX] != 3 {
		t.Fatalf("counts %v", counts)
	}
}

func TestBuilderValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero qubits", func() { New(0) })
	c := New(2)
	mustPanic("out of range", func() { c.AddH(2) })
	mustPanic("same operands", func() { c.AddCNOT(1, 1) })
	mustPanic("negative", func() { c.AddRZ(-1, 0.1) })
}

func TestDepth(t *testing.T) {
	c := New(3)
	if c.Depth() != 0 {
		t.Fatalf("empty depth %d", c.Depth())
	}
	c.AddH(0) // layer 1
	c.AddH(1) // layer 1
	if c.Depth() != 1 {
		t.Fatalf("parallel H depth %d", c.Depth())
	}
	c.AddCNOT(0, 1) // layer 2
	c.AddH(2)       // layer 1
	if c.Depth() != 2 {
		t.Fatalf("depth %d want 2", c.Depth())
	}
	c.AddRZZ(1, 2, 0.1) // layer 3
	if c.Depth() != 3 {
		t.Fatalf("depth %d want 3", c.Depth())
	}
}

func TestApplyMatchesManualGates(t *testing.T) {
	c := New(2)
	c.AddH(0).AddCNOT(0, 1)
	s, _ := qsim.NewState(2)
	c.Apply(s)
	want, _ := qsim.NewState(2)
	want.ApplyH(0)
	want.ApplyCNOT(0, 1)
	if f := qsim.Fidelity(s, want); math.Abs(f-1) > 1e-12 {
		t.Fatalf("fidelity %v", f)
	}
}

func TestApplyCoversAllKinds(t *testing.T) {
	c := New(3)
	c.AddH(0).AddRX(1, 0.1).AddRZ(2, 0.3)
	c.AddRZZ(0, 1, 0.4).AddCNOT(1, 2).AddSwap(0, 1)
	s, _ := qsim.NewState(3)
	c.Apply(s) // must not panic, must stay normalized
	if math.Abs(s.NormSquared()-1) > 1e-9 {
		t.Fatalf("norm after full gate set %v", s.NormSquared())
	}
}

func TestKindPredicates(t *testing.T) {
	if !RZZ.IsTwoQubit() || !RZZ.IsParameterized() {
		t.Fatal("RZZ predicates wrong")
	}
	if H.IsTwoQubit() || H.IsParameterized() {
		t.Fatal("H predicates wrong")
	}
	if RX.IsTwoQubit() || !RX.IsParameterized() {
		t.Fatal("RX predicates wrong")
	}
	if !CNOT.IsTwoQubit() || CNOT.IsParameterized() {
		t.Fatal("CNOT predicates wrong")
	}
	if SWAP.String() != "SWAP" || Kind(42).String() == "" {
		t.Fatal("Kind String broken")
	}
}

func TestRouteLinearAdjacency(t *testing.T) {
	c := New(5)
	c.AddH(0)
	c.AddRZZ(0, 4, 0.3)
	c.AddCNOT(1, 3)
	c.AddRZZ(2, 0, 0.2)
	routed, indexMap, layout := RouteLinear(c)
	for _, g := range routed.Gates {
		if g.Qubits() == 2 && abs(g.Q0-g.Q1) != 1 {
			t.Fatalf("non-adjacent gate after routing: %v", g)
		}
	}
	if len(indexMap) != len(c.Gates) {
		t.Fatalf("index map length %d", len(indexMap))
	}
	for gi, ri := range indexMap {
		if routed.Gates[ri].Kind != c.Gates[gi].Kind {
			t.Fatalf("index map %d->%d kind mismatch", gi, ri)
		}
	}
	// Layout must be a permutation.
	seen := make([]bool, c.N)
	for _, p := range layout {
		if p < 0 || p >= c.N || seen[p] {
			t.Fatalf("layout not a permutation: %v", layout)
		}
		seen[p] = true
	}
}

func TestRouteLinearEquivalenceUnderLayout(t *testing.T) {
	r := rng.New(11)
	c := New(4)
	for q := 0; q < 4; q++ {
		c.AddH(q)
	}
	for k := 0; k < 8; k++ {
		a, b := r.Intn(4), r.Intn(4)
		if a == b {
			continue
		}
		c.AddRZZ(a, b, r.Float64())
		c.AddRX(r.Intn(4), r.Float64())
	}
	routed, _, layout := RouteLinear(c)
	orig, _ := qsim.NewState(4)
	c.Apply(orig)
	phys, _ := qsim.NewState(4)
	routed.Apply(phys)
	// Undo the layout: amplitude of logical basis state x must equal the
	// amplitude of the physical index with bit layout[q] = x_q.
	for x := 0; x < orig.Len(); x++ {
		var y uint64
		for q := 0; q < 4; q++ {
			if uint64(x)>>uint(q)&1 == 1 {
				y |= 1 << uint(layout[q])
			}
		}
		da := orig.Amp(uint64(x)) - phys.Amp(y)
		if math.Hypot(real(da), imag(da)) > 1e-9 {
			t.Fatalf("amp mismatch at logical %d / physical %d: %v vs %v",
				x, y, orig.Amp(uint64(x)), phys.Amp(y))
		}
	}
}

func TestRouteLinearNoSwapsWhenAdjacent(t *testing.T) {
	c := New(3)
	c.AddCNOT(0, 1).AddCNOT(1, 2)
	routed, _, layout := RouteLinear(c)
	if routed.GateCounts()[SWAP] != 0 {
		t.Fatalf("unnecessary swaps: %v", routed.Gates)
	}
	for q, p := range layout {
		if q != p {
			t.Fatalf("layout moved without swaps: %v", layout)
		}
	}
}

func BenchmarkDepth(b *testing.B) {
	r := rng.New(1)
	c := New(20)
	for k := 0; k < 1000; k++ {
		a, q := r.Intn(20), r.Intn(20)
		if a == q {
			continue
		}
		c.AddRZZ(a, q, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Depth()
	}
}
