package qsim

import (
	"math"
	"testing"

	"qaoa2/internal/rng"
)

// z2Fixture builds a random Z2-SYMMETRIC cut-like diagonal over nFull
// qubits — table(i) = table(~i), the invariant every MaxCut cut table
// satisfies — plus its factored and dense phase forms. The reduced
// engine consumes the prefix halves table[:2^(nFull−1)]; the reference
// walk consumes the full tables.
func z2Fixture(t testing.TB, nFull int, seed uint64) (diag, levels []float64, idx []int32, shift []float64) {
	t.Helper()
	r := rng.New(seed)
	size := 1 << uint(nFull)
	mask := size - 1
	nLevels := 7
	levels = make([]float64, nLevels)
	for j := range levels {
		levels[j] = float64(j) - 2.5
	}
	diag = make([]float64, size)
	shift = make([]float64, size)
	idx = make([]int32, size)
	for i := 0; i < size/2; i++ {
		k := int32(r.Uint64() % uint64(nLevels))
		for _, j := range [2]int{i, mask ^ i} {
			idx[j] = k
			shift[j] = levels[k]
			diag[j] = levels[k] + 2.5
		}
	}
	return diag, levels, idx, shift
}

// TestZ2EngineMatchesKernelWalk pins the symmetry-reduced engine
// against the full unfused kernel walk: same energy and — after
// expanding the half-vector — the same amplitudes at 1e-12, through
// both phase forms and both tile kernels (assembly and portable). The
// size list crosses every kernel regime: nFull−1 below, at and above
// lowBlockQubits (single-tile boundary pass vs mirrored tile pairs)
// and above lowBlockQubits+mixerBlockQubits (high groups live).
func TestZ2EngineMatchesKernelWalk(t *testing.T) {
	saved := useMixerAsm
	defer func() { useMixerAsm = saved }()
	for _, asm := range []bool{false, saved} {
		useMixerAsm = asm
		for _, nFull := range []int{2, 3, 6, 11, 12, 14, 16} {
			for p := 1; p <= 3; p++ {
				diag, levels, idx, shift := z2Fixture(t, nFull, uint64(nFull*37+p))
				pr := rng.New(uint64(nFull*13 + p))
				gammas := make([]float64, p)
				betas := make([]float64, p)
				for l := 0; l < p; l++ {
					gammas[l] = pr.Float64() * 2 * math.Pi
					betas[l] = pr.Float64() * math.Pi
				}
				want, ws := referenceEvaluate(t, nFull, shift, diag, gammas, betas)
				half := 1 << uint(nFull-1)

				for _, mode := range []string{"indexed", "dense"} {
					var eng *Engine
					var err error
					if mode == "indexed" {
						eng, err = NewZ2Engine(nFull, diag[:half], levels, idx[:half], nil)
					} else {
						eng, err = NewZ2Engine(nFull, diag[:half], nil, nil, shift[:half])
					}
					if err != nil {
						t.Fatal(err)
					}
					got := eng.Evaluate(gammas, betas)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("asm=%v n=%d p=%d %s: energy %v, want %v", asm, nFull, p, mode, got, want)
					}
					red := eng.State()
					if red.Z2Full() != nFull || red.Len() != half {
						t.Fatalf("asm=%v n=%d p=%d %s: state not reduced: Z2Full=%d Len=%d", asm, nFull, p, mode, red.Z2Full(), red.Len())
					}
					if d := maxAmpDiff(red.ExpandZ2(), ws); d > 1e-12 {
						t.Fatalf("asm=%v n=%d p=%d %s: expanded amplitudes deviate by %v", asm, nFull, p, mode, d)
					}
					if again := eng.Evaluate(gammas, betas); again != got {
						t.Fatalf("asm=%v n=%d p=%d %s: re-evaluation drifted: %v then %v", asm, nFull, p, mode, got, again)
					}
				}
			}
		}
	}
	if !saved {
		t.Log("assembly tile kernel not available on this machine; Go fallback covered")
	}
}

// z2EvaluatedState runs a reduced evaluation and returns the final
// half-vector state, still marked reduced.
func z2EvaluatedState(t testing.TB, nFull int, seed uint64) *State {
	t.Helper()
	diag, levels, idx, _ := z2Fixture(t, nFull, seed)
	half := 1 << uint(nFull-1)
	eng, err := NewZ2Engine(nFull, diag[:half], levels, idx[:half], nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Evaluate([]float64{0.37, 1.21}, []float64{0.83, 0.29})
	return eng.State()
}

// TestZ2MeasurementMatchesExpanded pins the strongest sampling
// guarantee the reduction offers: every read-only measurement accessor
// on the reduced state is BIT-IDENTICAL to the same call on the
// expanded 2^n state — equal probabilities, equal argmax/top-k, and
// equal Sample histograms under the same random stream.
func TestZ2MeasurementMatchesExpanded(t *testing.T) {
	for _, nFull := range []int{2, 5, 9, 12} {
		red := z2EvaluatedState(t, nFull, uint64(nFull)*101+7)
		full := red.ExpandZ2()
		if red.Z2Full() != nFull {
			t.Fatalf("n=%d: ExpandZ2 mutated the receiver", nFull)
		}
		if full.N() != nFull || full.Len() != 1<<uint(nFull) {
			t.Fatalf("n=%d: expansion has %d qubits / %d amps", nFull, full.N(), full.Len())
		}

		mask := uint64(full.Len() - 1)
		for i, a := range red.amps {
			rp := z2PairProb(a)
			for _, x := range []uint64{uint64(i), mask ^ uint64(i)} {
				if fp := full.Probability(x); rp != fp {
					t.Fatalf("n=%d: probability[%d] = %v reduced vs %v expanded", nFull, x, rp, fp)
				}
			}
		}

		if got, want := red.MaxAmpIndex(), full.MaxAmpIndex(); got != want {
			t.Fatalf("n=%d: MaxAmpIndex %d reduced vs %d expanded", nFull, got, want)
		}
		for _, k := range []int{1, 3, 1 << uint(nFull)} {
			got, want := red.TopAmpIndices(k), full.TopAmpIndices(k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d indices reduced vs %d expanded", nFull, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("n=%d k=%d: top[%d] = %d reduced vs %d expanded", nFull, k, j, got[j], want[j])
				}
			}
		}

		const shots = 4096
		gotH := red.Sample(shots, rng.New(555))
		wantH := full.Sample(shots, rng.New(555))
		if len(gotH) != len(wantH) {
			t.Fatalf("n=%d: histogram has %d keys reduced vs %d expanded", nFull, len(gotH), len(wantH))
		}
		for basis, c := range wantH {
			if gotH[basis] != c {
				t.Fatalf("n=%d: histogram[%d] = %d reduced vs %d expanded", nFull, basis, gotH[basis], c)
			}
		}
	}
}

// TestZ2CollapseMaterializes pins that symmetry-breaking mutations
// expand the half-vector in place before collapsing.
func TestZ2CollapseMaterializes(t *testing.T) {
	nFull := 6
	red := z2EvaluatedState(t, nFull, 19)
	ref := red.ExpandZ2().Clone()

	bit := red.Clone()
	outcome := bit.MeasureQubit(nFull-1, rng.New(77))
	if bit.Z2Full() != 0 || bit.N() != nFull || bit.Len() != 1<<uint(nFull) {
		t.Fatalf("MeasureQubit left Z2Full=%d n=%d len=%d", bit.Z2Full(), bit.N(), bit.Len())
	}
	want := ref.MeasureQubit(nFull-1, rng.New(77))
	if outcome != want {
		t.Fatalf("reduced measurement observed %d, expanded observed %d", outcome, want)
	}
	if d := maxAmpDiff(bit, ref); d > 1e-12 {
		t.Fatalf("post-measurement states deviate by %v", d)
	}

	ps := red.Clone()
	if err := ps.PostSelect(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if ps.Z2Full() != 0 || ps.Len() != 1<<uint(nFull) {
		t.Fatalf("PostSelect left Z2Full=%d len=%d", ps.Z2Full(), ps.Len())
	}
	norm := 0.0
	for i := 0; i < ps.Len(); i++ {
		norm += ps.Probability(uint64(i))
	}
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("post-selected norm %v", norm)
	}
}

func TestZ2EngineRejectsBadShapes(t *testing.T) {
	diag, levels, idx, shift := z2Fixture(t, 4, 9)
	if _, err := NewZ2Engine(1, []float64{0}, levels, []int32{0}, nil); err == nil {
		t.Fatal("single-qubit reduction accepted")
	}
	if _, err := NewZ2Engine(4, diag, levels, idx, nil); err == nil {
		t.Fatal("full-length diagonal accepted for reduced engine")
	}
	if _, err := NewZ2Engine(4, diag[:8], levels, idx, nil); err == nil {
		t.Fatal("full-length phase index accepted for reduced engine")
	}
	if _, err := NewZ2Engine(4, diag[:8], nil, nil, shift); err == nil {
		t.Fatal("full-length dense phase diagonal accepted for reduced engine")
	}
	if _, err := NewZ2Engine(4, diag[:8], levels, idx[:8], shift[:8]); err == nil {
		t.Fatal("both phase forms accepted")
	}
}

// TestZ2EngineZeroAlloc extends the zero-allocation guarantee to the
// reduced path, across both low-sweep regimes (single tile with the
// scalar boundary pass, and mirrored tile pairs).
func TestZ2EngineZeroAlloc(t *testing.T) {
	gammas := []float64{0.3, 1.1, 0.7}
	betas := []float64{0.9, 0.2, 0.5}
	for _, nFull := range []int{9, 13} {
		diag, levels, idx, shift := z2Fixture(t, nFull, 17)
		half := 1 << uint(nFull-1)
		for _, mode := range []string{"indexed", "dense"} {
			var eng *Engine
			var err error
			if mode == "indexed" {
				eng, err = NewZ2Engine(nFull, diag[:half], levels, idx[:half], nil)
			} else {
				eng, err = NewZ2Engine(nFull, diag[:half], nil, nil, shift[:half])
			}
			if err != nil {
				t.Fatal(err)
			}
			eng.Evaluate(gammas, betas)
			allocs := testing.AllocsPerRun(20, func() {
				eng.Evaluate(gammas, betas)
			})
			if allocs != 0 {
				t.Fatalf("n=%d %s: Evaluate allocates %v objects per call, want 0", nFull, mode, allocs)
			}
		}
	}
}

// BenchmarkEngineZ2Evaluate16p3 is the reduced twin of
// BenchmarkEngineEvaluate16p3: same full problem size, half the stored
// amplitudes.
func BenchmarkEngineZ2Evaluate16p3(b *testing.B) { benchmarkEngineZ2(b, 16) }

// BenchmarkEngineZ2Evaluate20p3 is the paper-scale leaf: an 8 MiB
// half-vector, two high groups per layer, nothing cache-resident.
func BenchmarkEngineZ2Evaluate20p3(b *testing.B) { benchmarkEngineZ2(b, 20) }

func benchmarkEngineZ2(b *testing.B, nFull int) {
	half := 1 << uint(nFull-1)
	diag, levels, idx, _ := z2Fixture(b, nFull, 41)
	eng, err := NewZ2Engine(nFull, diag[:half], levels, idx[:half], nil)
	if err != nil {
		b.Fatal(err)
	}
	gammas := []float64{0.35, 0.7, 1.05}
	betas := []float64{0.525, 0.35, 0.175}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate(gammas, betas)
	}
}
