package qsim

import (
	"math"
	"math/cmplx"
	"testing"

	"qaoa2/internal/rng"
)

// randomState fills an n-qubit state with a normalized random vector.
func randomState(t testing.TB, n int, seed uint64) *State {
	t.Helper()
	s, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for i := range s.amps {
		s.amps[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	inv := complex(1/math.Sqrt(s.NormSquared()), 0)
	for i := range s.amps {
		s.amps[i] *= inv
	}
	return s
}

func maxAmpDiff(a, b *State) float64 {
	worst := 0.0
	for i := range a.amps {
		if d := cmplx.Abs(a.amps[i] - b.amps[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestApplyRXAllMatchesPerQubitWalk pins the blocked mixer to the
// per-qubit ApplyRX walk at 1e-12 across qubit counts 1..18 — sizes
// below and above the parallel threshold (2^14 amplitudes) and both
// multiples and non-multiples of the 6-qubit block.
func TestApplyRXAllMatchesPerQubitWalk(t *testing.T) {
	thetas := []float64{0, 0.37, math.Pi / 2, 2 * 1.234, -0.81}
	for n := 1; n <= 18; n++ {
		theta := thetas[n%len(thetas)]
		if theta == 0 {
			theta = 1.07
		}
		blocked := randomState(t, n, uint64(n)*13+1)
		walk := blocked.Clone()
		blocked.ApplyRXAll(theta)
		for q := 0; q < n; q++ {
			walk.ApplyRX(q, theta)
		}
		if d := maxAmpDiff(blocked, walk); d > 1e-12 {
			t.Fatalf("n=%d theta=%v: blocked mixer deviates from ApplyRX walk by %v", n, theta, d)
		}
	}
}

// TestApplyRXAllGoMatchesAsm runs the same sweep in every kernel tier,
// pinning the portable fallback against the walk and — on machines
// where an assembly tier is live — transitively against the assembly
// path.
func TestApplyRXAllGoMatchesAsm(t *testing.T) {
	kernelTiers(t, func(t *testing.T) {
		for _, n := range []int{3, 6, 11, 16} {
			blocked := randomState(t, n, uint64(n)*7+29)
			walk := blocked.Clone()
			blocked.ApplyRXAll(0.93)
			for q := 0; q < n; q++ {
				walk.ApplyRX(q, 0.93)
			}
			if d := maxAmpDiff(blocked, walk); d > 1e-12 {
				t.Fatalf("n=%d: deviation %v", n, d)
			}
		}
	})
}

// TestApplyRXAllSerialMatches pins inline kernel execution (a
// one-worker pool) against the default dispatch.
func TestApplyRXAllSerialMatches(t *testing.T) {
	def := randomState(t, 15, 99)
	ser := def.Clone()
	ser.pool = inlinePool()
	def.ApplyRXAll(1.21)
	ser.ApplyRXAll(1.21)
	if d := maxAmpDiff(def, ser); d > 1e-12 {
		t.Fatalf("inline mixer deviates by %v", d)
	}
}

// TestApplyRXAllOnExplicitPool forces the blocked mixer and the
// classic kernels through a private multi-worker pool — the -race
// coverage for the persistent worker pool even on single-CPU machines.
func TestApplyRXAllOnExplicitPool(t *testing.T) {
	pool := newWorkerPool(4)
	if pool == nil {
		t.Fatal("newWorkerPool(4) returned nil")
	}
	defer pool.Stop()

	pooled := randomState(t, 16, 4242)
	pooled.pool = pool
	ref := pooled.Clone()
	ref.pool = inlinePool()

	pooled.ApplyRXAll(0.7)
	ref.ApplyRXAll(0.7)
	if d := maxAmpDiff(pooled, ref); d > 1e-12 {
		t.Fatalf("pooled mixer deviates by %v", d)
	}

	pooled.ApplyRX(3, 0.31)
	ref.ApplyRX(3, 0.31)
	pooled.ApplyRZZ(2, 9, 0.5)
	ref.ApplyRZZ(2, 9, 0.5)
	if d := maxAmpDiff(pooled, ref); d > 1e-12 {
		t.Fatalf("pooled gate walk deviates by %v", d)
	}
}

func BenchmarkApplyRXAll16(b *testing.B) {
	s := randomState(b, 16, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyRXAll(0.9)
	}
}

func BenchmarkApplyRXWalk16(b *testing.B) {
	s := randomState(b, 16, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 0; q < 16; q++ {
			s.ApplyRX(q, 0.9)
		}
	}
}
