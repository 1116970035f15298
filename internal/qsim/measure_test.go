package qsim

import (
	"math"
	"slices"
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

func TestDecodeCandidatesBasisState(t *testing.T) {
	s, _ := NewState(3)
	s.Apply1Q(0, pauliX)
	s.Apply1Q(2, pauliX)
	if got := s.DecodeCandidates(1, nil); !slices.Equal(got, []uint64{0b101}) {
		t.Fatalf("candidates %b, want [101]", got)
	}
}

// TestDecodeCandidatesKeepsTies: a uniform state ties every basis
// state, and the decode scores them all (up to maxTies, lowest first).
func TestDecodeCandidatesKeepsTies(t *testing.T) {
	s, _ := NewPlusState(2)
	if got := s.DecodeCandidates(1, nil); !slices.Equal(got, []uint64{0, 1, 2, 3}) {
		t.Fatalf("uniform 2-qubit candidates %v, want all four", got)
	}
	s, _ = NewPlusState(8)
	got := s.DecodeCandidates(1, nil)
	if len(got) != maxTies || got[0] != 0 || got[maxTies-1] != maxTies-1 {
		t.Fatalf("uniform 8-qubit candidates %v, want 0…%d", got, maxTies-1)
	}
}

func TestDecodeCandidatesTopK(t *testing.T) {
	s, _ := NewState(3)
	s.amps[0] = 0
	s.amps[5] = complex(0.8, 0)
	s.amps[2] = complex(0.5, 0)
	s.amps[7] = complex(0.33, 0)
	s.amps[1] = complex(0.1, 0)
	for k, want := range map[int][]uint64{1: {5}, 2: {2, 5}, 3: {2, 5, 7}, 4: {1, 2, 5, 7}} {
		if got := s.DecodeCandidates(k, nil); !slices.Equal(got, want) {
			t.Fatalf("k=%d: candidates %v, want %v", k, got, want)
		}
	}
}

// TestDecodeCandidatesClampsK: k below 1 is the paper's k = 1, and k
// past the basis size is the whole basis.
func TestDecodeCandidatesClampsK(t *testing.T) {
	s, _ := NewState(2)
	s.amps[0], s.amps[3] = complex(0.6, 0), complex(0.8, 0)
	if got := s.DecodeCandidates(0, nil); !slices.Equal(got, []uint64{3}) {
		t.Fatalf("k=0 gave %v", got)
	}
	if got := s.DecodeCandidates(100, nil); !slices.Equal(got, []uint64{0, 1, 2, 3}) {
		t.Fatalf("k>len gave %v", got)
	}
}

// TestDecodeCandidatesHoldsArgmax: on an evolved state the most
// probable basis state (ties: lowest index) is always a candidate.
func TestDecodeCandidatesHoldsArgmax(t *testing.T) {
	s, _ := NewPlusState(4)
	s.ApplyRX(0, 0.8)
	s.ApplyRZZ(1, 2, 1.2)
	s.ApplyRX(3, 0.3)
	best := uint64(0)
	for i := range uint64(s.Len()) {
		if s.Probability(i) > s.Probability(best) {
			best = i
		}
	}
	if got := s.DecodeCandidates(1, nil); !slices.Contains(got, best) {
		t.Fatalf("candidates %v miss the argmax %d", got, best)
	}
}

func TestSampleDeterministicState(t *testing.T) {
	s, _ := NewState(3)
	s.Apply1Q(1, pauliX)
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

// TestDecodeCandidatesAllocatesNothing pins the decode at zero
// allocations when the caller's buffer has room: the k = 1 pass and the
// k > 1 selection both keep their state on the stack, on a bare state
// and on an engine's, read through its peaks.
func TestDecodeCandidatesAllocatesNothing(t *testing.T) {
	s, err := NewZ2State(12)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.amps, randomTile(len(s.amps), 12))
	diag, levels, idx, shift := z2Fixture(t, 16, 5)
	eng, _ := testEngine(t, 16, true, false, diag, levels, idx, shift)
	defer eng.Release()
	eng.Evaluate(benchGammas, benchBetas)
	for _, s := range []*State{s, eng.State()} {
		for _, k := range []int{1, 16} {
			if a := testing.AllocsPerRun(10, func() {
				var buf [maxTies + 16]uint64
				decodeSink = len(s.DecodeCandidates(k, buf[:0]))
			}); a != 0 {
				t.Fatalf("k=%d, %d peaks: DecodeCandidates allocates %v per call", k, len(s.peaks), a)
			}
		}
	}
}

// readsBatches reports whether a k = 1 decode of s reads it batch by
// batch through its peaks rather than whole.
func readsBatches(s *State) bool {
	copies := 1
	if s.z2Full != 0 {
		copies = 2
	}
	return s.view(1, copies, nil).width == highBatch
}

// TestEngineDecodeMatchesBareCopy: decoding an engine's final state
// through its batch peaks gives exactly the candidates of a bare copy
// of the same amplitudes (no peaks: one batch, read whole), for
// k ∈ {1, 2, 4, 16}, on reduced and full engines of 8–22 qubits, in
// every kernel tier. A state with high groups has peaks, and its k = 1
// decode reads batches.
func TestEngineDecodeMatchesBareCopy(t *testing.T) {
	sizes := []int{8, 10, 11, 12, 14, 16, 17, 19, 20, 22}
	if testing.Short() || raceDetector {
		sizes = []int{8, 11, 12, 16}
	}
	kernelTiers(t, func(t *testing.T) {
		for _, nFull := range sizes {
			diag, levels, idx, shift := z2Fixture(t, nFull, uint64(nFull)+5)
			gammas, betas := engineParams(nFull, 3)
			for _, z2 := range []bool{false, true} {
				eng, _ := testEngine(t, nFull, z2, false, diag, levels, idx, shift)
				eng.Evaluate(gammas, betas)
				s := eng.State()
				bare := s.Clone()
				if high := s.n > eng.m0; (s.peaks != nil) != high || bare.peaks != nil || readsBatches(s) != high {
					t.Fatalf("nFull=%d z2=%v: %d peaks (high groups: %v), copy %d, reads batches %v",
						nFull, z2, len(s.peaks), high, len(bare.peaks), readsBatches(s))
				}
				for _, k := range []int{1, 2, 4, 16} {
					got, want := s.DecodeCandidates(k, nil), bare.DecodeCandidates(k, nil)
					if !slices.Equal(got, want) || len(got) == 0 {
						t.Fatalf("nFull=%d z2=%v k=%d: candidates %v, bare copy %v", nFull, z2, k, got, want)
					}
				}
				eng.Release()
			}
		}
	})
}

// TestEngineDecodeAllTies: at γ = 0 every amplitude of the final state
// is the same, so every batch passes its peak's test, and the decode
// keeps the maxTies lowest indices.
func TestEngineDecodeAllTies(t *testing.T) {
	want := make([]uint64, maxTies)
	for i := range want {
		want[i] = uint64(i)
	}
	for _, nFull := range []int{12, 18} {
		diag, levels, idx, shift := z2Fixture(t, nFull, 7)
		for _, z2 := range []bool{false, true} {
			eng, _ := testEngine(t, nFull, z2, false, diag, levels, idx, shift)
			eng.Evaluate([]float64{0, 0}, []float64{0.3, 1.2})
			s := eng.State()
			for _, k := range []int{1, 16} {
				if got := s.DecodeCandidates(k, nil); !slices.Equal(got, want) {
					t.Fatalf("nFull=%d z2=%v k=%d: candidates %v, want the first %d indices", nFull, z2, k, got, maxTies)
				}
			}
			eng.Release()
		}
	}
}

// TestStateWritesDropPeaks: the peaks describe the amplitudes the
// folding sweep left. A gate after Evaluate drops them — X on qubit 5
// moves amplitudes between batches, so a stale peak would hide the
// decode's answer — and so do a p = 0 Evaluate, whose fill is no
// folding sweep, and Release.
func TestStateWritesDropPeaks(t *testing.T) {
	diag, levels, idx, shift := z2Fixture(t, 14, 3)
	gammas, betas := engineParams(14, 2)
	for _, z2 := range []bool{false, true} {
		eng, _ := testEngine(t, 14, z2, false, diag, levels, idx, shift)
		s := eng.State()
		eng.Evaluate(gammas, betas)
		if s.peaks == nil {
			t.Fatalf("z2=%v: no peaks after Evaluate", z2)
		}
		s.Apply1Q(5, pauliX)
		if s.peaks != nil {
			t.Fatalf("z2=%v: peaks kept through a gate", z2)
		}
		for _, k := range []int{1, 4} {
			if got, want := s.DecodeCandidates(k, nil), s.Clone().DecodeCandidates(k, nil); !slices.Equal(got, want) {
				t.Fatalf("z2=%v k=%d: after a gate, candidates %v, bare copy %v", z2, k, got, want)
			}
		}
		eng.Evaluate(gammas, betas)
		eng.Evaluate(nil, nil)
		if s.peaks != nil {
			t.Fatalf("z2=%v: peaks kept through a p = 0 Evaluate", z2)
		}
		eng.Evaluate(gammas, betas)
		eng.Release()
		if s.peaks != nil {
			t.Fatalf("z2=%v: peaks kept through Release", z2)
		}
	}
}

// TestDecodePeaksNearUnderAndOverflow pins peakFloor's range guard on
// a reduced state: amplitudes x and y in two batches tie in the
// expansion's probability, though y's |y|² falls a whole step below x's
// — |x|² overflows where |x/√2|² does not, or both squares land on the
// subnormal grid. The peaks cannot tell such a pair apart from a clear
// gap, so the decode must read the vector whole and keep both.
func TestDecodePeaksNearUnderAndOverflow(t *testing.T) {
	big, tiny := math.Sqrt(math.MaxFloat64), 0x1p-536
	for _, c := range []struct {
		name string
		x, y float64
	}{
		{"overflow", big * (1 + 1e-8), big * (1 - 1e-8)},
		{"subnormal", tiny, math.Sqrt(3.25) * 0x1p-537},
	} {
		s := &State{n: 4, amps: make([]complex128, 2*highBatch), z2Full: 5}
		s.amps[0], s.amps[highBatch] = complex(c.x, 0), complex(c.y, 0)
		if got := s.DecodeCandidates(1, nil); !slices.Equal(got, []uint64{0, highBatch}) {
			t.Fatalf("%s: whole-vector candidates %v, want the tie [0 %d]", c.name, got, highBatch)
		}
		for _, b := range batchedLayouts(s) {
			if got := b.DecodeCandidates(1, nil); !slices.Equal(got, []uint64{0, highBatch}) {
				t.Fatalf("%s, %d batches: candidates %v, want [0 %d]", c.name, len(b.peaks), got, highBatch)
			}
		}
	}
}

// BenchmarkDecodeCandidatesZ2_20 times the decode of a 20-qubit leaf,
// a p = 3 Evaluate's final state over 2^19 Z2-reduced amplitudes: on
// the engine's state, which reads only the batches its peaks let
// through, and on a bare copy of it (one batch: the max pass and the
// tie pass over the whole vector).
func BenchmarkDecodeCandidatesZ2_20(b *testing.B) {
	diag, levels, idx, shift := z2Fixture(b, 20, 41)
	eng, _ := testEngine(b, 20, true, false, diag, levels, idx, shift)
	defer eng.Release()
	eng.Evaluate(benchGammas, benchBetas)
	for _, c := range []struct {
		name string
		s    *State
	}{{"engine", eng.State()}, {"bare", eng.State().Clone()}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(16 * c.s.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf [8]uint64
				decodeSink = len(c.s.DecodeCandidates(1, buf[:0]))
			}
		})
	}
}

var decodeSink int
