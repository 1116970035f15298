package qsim

import (
	"math"
	"testing"

	"qaoa2/internal/rng"
)

func TestProbabilitiesSumToOne(t *testing.T) {
	s, _ := NewPlusState(6)
	s.ApplyRZZ(0, 3, 0.4)
	s.ApplyRX(2, 0.9)
	sum := 0.0
	for i := 0; i < s.Len(); i++ {
		sum += s.Probability(uint64(i))
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestMaxAmpIndex(t *testing.T) {
	s, _ := NewState(3)
	s.ApplyX(0)
	s.ApplyX(2)
	if got := s.MaxAmpIndex(); got != 0b101 {
		t.Fatalf("MaxAmpIndex = %b", got)
	}
}

func TestMaxAmpIndexTieBreaksLow(t *testing.T) {
	s, _ := NewPlusState(2)
	if got := s.MaxAmpIndex(); got != 0 {
		t.Fatalf("uniform state argmax = %d want 0", got)
	}
}

func TestTopAmpIndices(t *testing.T) {
	s, _ := NewState(3)
	s.amps[0] = 0
	s.amps[5] = complex(0.8, 0)
	s.amps[2] = complex(0.5, 0)
	s.amps[7] = complex(0.33, 0)
	s.amps[1] = complex(0.1, 0)
	top := s.TopAmpIndices(3)
	want := []uint64{5, 2, 7}
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top = %v want %v", top, want)
		}
	}
}

func TestTopAmpIndicesClamps(t *testing.T) {
	s, _ := NewPlusState(2)
	if got := s.TopAmpIndices(0); len(got) != 1 {
		t.Fatalf("k=0 gave %v", got)
	}
	if got := s.TopAmpIndices(100); len(got) != 4 {
		t.Fatalf("k>len gave %d entries", len(got))
	}
}

func TestTopAmpConsistentWithMax(t *testing.T) {
	s, _ := NewPlusState(4)
	s.ApplyRX(0, 0.8)
	s.ApplyRZZ(1, 2, 1.2)
	s.ApplyRX(3, 0.3)
	if s.TopAmpIndices(1)[0] != s.MaxAmpIndex() {
		t.Fatal("TopAmpIndices(1) != MaxAmpIndex")
	}
}

func TestSampleDeterministicState(t *testing.T) {
	s, _ := NewState(3)
	s.ApplyX(1)
	hist := s.Sample(100, rng.New(1))
	if hist[0b010] != 100 {
		t.Fatalf("basis-state sampling hist = %v", hist)
	}
}

func TestSampleUniform(t *testing.T) {
	s, _ := NewPlusState(3)
	shots := 80000
	hist := s.Sample(shots, rng.New(2))
	want := float64(shots) / 8
	for i := uint64(0); i < 8; i++ {
		if math.Abs(float64(hist[i])-want) > 6*math.Sqrt(want) {
			t.Fatalf("outcome %d count %d deviates from %v", i, hist[i], want)
		}
	}
}

func TestSampleCountsTotal(t *testing.T) {
	s, _ := NewPlusState(5)
	s.ApplyRX(1, 0.7)
	hist := s.Sample(4096, rng.New(3))
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != 4096 {
		t.Fatalf("sample total %d", total)
	}
	if s.Sample(0, rng.New(1)) == nil || len(s.Sample(0, rng.New(1))) != 0 {
		t.Fatal("0 shots should give empty histogram")
	}
}

func TestExpectDiagonal(t *testing.T) {
	s, _ := NewState(2)
	s.ApplyH(0) // (|00>+|01>)/√2
	table := []float64{1, 2, 3, 4}
	want := 0.5*1 + 0.5*2
	if got := s.ExpectDiagonal(table); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpectDiagonal=%v want %v", got, want)
	}
}

func TestExpectDiagonalLengthCheck(t *testing.T) {
	s, _ := NewState(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on table length mismatch")
		}
	}()
	s.ExpectDiagonal([]float64{1})
}

func TestExpectDiagonalParallelPath(t *testing.T) {
	// A state past the parallel threshold (n=15 → 32768 amplitudes)
	// sums in index order, bit for bit the serial sum.
	s, _ := NewPlusState(15)
	s.ApplyRX(3, 0.6)
	table := make([]float64, s.Len())
	for i := range table {
		table[i] = float64(i % 7)
	}
	got := s.ExpectDiagonal(table)
	want := 0.0
	for i := 0; i < s.Len(); i++ {
		want += s.Probability(uint64(i)) * table[i]
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ExpectDiagonal %v, in-order sum %v", got, want)
	}
}

// TestExpectDiagonalIgnoresPool requires one bit pattern from 50 calls
// of ExpectDiagonal on 2^18 amplitudes on a serial state and on each of
// private pools of 2, 3 and 4 workers: the sum takes no lock and no
// completion order.
func TestExpectDiagonalIgnoresPool(t *testing.T) {
	s, _ := NewPlusState(18)
	for q := 0; q < s.N(); q += 3 {
		s.ApplyRX(q, 0.3+0.1*float64(q))
		s.ApplyRZZ(q, (q+1)%s.N(), 0.7)
	}
	r := rng.New(18)
	table := make([]float64, s.Len())
	for i := range table {
		table[i] = float64(r.Uint64()%97) / 7
	}
	want := math.Float64bits(s.ExpectDiagonal(table))
	for _, workers := range []int{0, 2, 3, 4} {
		p := newWorkerPool(workers)
		if p != nil {
			defer p.Stop()
		}
		s.pool = p
		s.SetSerial(p == nil)
		for range 50 {
			if got := math.Float64bits(s.ExpectDiagonal(table)); got != want {
				t.Fatalf("%d workers: energy bits %016x, want %016x", workers, got, want)
			}
		}
	}
}

func BenchmarkApplyH20(b *testing.B) {
	s, _ := NewPlusState(20)
	b.SetBytes(int64(16 * s.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyH(i % 20)
	}
}

func BenchmarkApplyRZZ20(b *testing.B) {
	s, _ := NewPlusState(20)
	b.SetBytes(int64(16 * s.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyRZZ(i%20, (i+7)%20, 0.3)
	}
}

func BenchmarkSample4096From18(b *testing.B) {
	s, _ := NewPlusState(18)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(4096, r)
	}
}

// TestMaxAmpIndexAllocatesNothing pins the decode at zero allocations
// in every tier: the kernels' lane results live on the caller's stack.
func TestMaxAmpIndexAllocatesNothing(t *testing.T) {
	s, err := NewZ2State(12)
	if err != nil {
		t.Fatal(err)
	}
	kernelTiers(t, func(t *testing.T) {
		if a := testing.AllocsPerRun(10, func() { s.MaxAmpIndex() }); a != 0 {
			t.Fatalf("MaxAmpIndex allocates %v per call", a)
		}
	})
}

// BenchmarkMaxAmpIndexZ2_20 times the decode of a 20-qubit leaf: the
// ranking pass over its 2^19 Z2-reduced amplitudes, in the active tier.
// The amplitudes are a deterministic pseudo-random fill, so no tier
// falls back to the scan.
func BenchmarkMaxAmpIndexZ2_20(b *testing.B) {
	s, err := NewZ2State(20)
	if err != nil {
		b.Fatal(err)
	}
	copy(s.amps, randomTile(len(s.amps), 20))
	b.SetBytes(int64(16 * len(s.amps)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxAmpSink = s.MaxAmpIndex()
	}
}

var maxAmpSink uint64
