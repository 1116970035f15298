package qsim

import (
	"testing"

	"qaoa2/internal/rng"
)

// randomTile fills a tile with deterministic non-trivial amplitudes.
func randomTile(n int, seed uint64) []complex128 {
	r := rng.New(seed)
	buf := make([]complex128, n)
	for i := range buf {
		buf[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return buf
}

// TestApplyRXAllWithoutAVX512Matches pins the AVX2 tier on an AVX-512
// host (the QAOA2_NOAVX512=1 configuration): the AVX2 kernel must carry
// the sweep and still match the per-qubit walk.
func TestApplyRXAllWithoutAVX512Matches(t *testing.T) {
	restore, err := SetKernelTier("avx2")
	if err != nil {
		t.Skip(err)
	}
	defer restore()
	for _, n := range []int{6, 11, 16} {
		blocked := randomState(t, n, uint64(n)*5+17)
		walk := blocked.Clone()
		blocked.ApplyRXAll(1.13)
		for q := 0; q < n; q++ {
			walk.ApplyRX(q, 1.13)
		}
		if d := maxAmpDiff(blocked, walk); d > 1e-12 {
			t.Fatalf("n=%d: AVX2-only sweep deviates from walk by %v", n, d)
		}
	}
}

// TestKernelTierNames checks the tier switch: every tier up to the
// resolved one can be set and reports its name, every tier above it
// and an unknown name are refused, and restore brings back the tier
// the process resolved.
func TestKernelTierNames(t *testing.T) {
	for tier, name := range tierNames {
		restore, err := SetKernelTier(name)
		if kernelTier(tier) > hostTier {
			if err == nil {
				restore()
				t.Fatalf("SetKernelTier(%q) accepted above the resolved %s", name, tierNames[hostTier])
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := KernelTier(); got != name {
			t.Fatalf("after SetKernelTier(%q): tier %q", name, got)
		}
		restore()
	}
	if got := KernelTier(); got != tierNames[hostTier] {
		t.Fatalf("restored tier %q, want %q", got, tierNames[hostTier])
	}
	if _, err := SetKernelTier("sse2"); err == nil {
		t.Fatal("SetKernelTier accepted an unknown tier")
	}
}

// mixer16Q3P is the 16-qubit p=3 mixer workload: three full blocked
// sweeps, the rxTile call pattern of one fused 16q p=3 evaluation.
func mixer16Q3P(s *State) {
	for l := 0; l < 3; l++ {
		s.ApplyRXAll(0.9)
	}
}

// TestAVX512BeatsAVX2Microbench is the acceptance gate for the new
// kernel tier: on hardware where AVX-512 is live, the ZMM kernel must
// beat the AVX2 kernel on the 16q p=3 mixer microbench. Skipped
// (not failed) wherever CPUID/XGETBV detection rules the tier out, so
// the suite stays green on AVX2-only and portable machines.
func TestAVX512BeatsAVX2Microbench(t *testing.T) {
	if hostTier < tierAVX512 {
		t.Skip("AVX-512 tile kernel not active on this machine")
	}
	if testing.Short() {
		t.Skip("microbench comparison skipped in -short mode")
	}
	s := randomState(t, 16, 321)
	bench := func(tier string) float64 {
		restore, err := SetKernelTier(tier)
		if err != nil {
			t.Fatal(err)
		}
		defer restore()
		best := 0.0
		for round := 0; round < 5; round++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mixer16Q3P(s)
				}
			})
			ns := float64(r.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	avx2 := bench("avx2")
	avx512 := bench("avx512")
	t.Logf("16q p=3 mixer: avx2 %.0f ns/op, avx512 %.0f ns/op (%.2fx)", avx2, avx512, avx2/avx512)
	if avx512 >= avx2 {
		t.Fatalf("AVX-512 kernel (%.0f ns/op) not faster than AVX2 (%.0f ns/op)", avx512, avx2)
	}
}

func BenchmarkMixer16Q3PAVX512(b *testing.B) { benchmarkMixerTier(b, "avx512") }
func BenchmarkMixer16Q3PAVX2(b *testing.B)   { benchmarkMixerTier(b, "avx2") }

func benchmarkMixerTier(b *testing.B, tier string) {
	restore, err := SetKernelTier(tier)
	if err != nil {
		b.Skip(err)
	}
	defer restore()
	s := randomState(b, 16, 321)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixer16Q3P(s)
	}
}
