package qsim

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/rng"
)

// engineFixture builds a random "cut-like" diagonal with few distinct
// integer levels plus its factored and dense phase forms.
func engineFixture(t testing.TB, n int, seed uint64) (diag, levels []float64, idx []int32, shift []float64) {
	t.Helper()
	r := rng.New(seed)
	size := 1 << uint(n)
	nLevels := 7
	lv := make([]float64, nLevels)
	for j := range lv {
		lv[j] = float64(j) - 2.5 // includes negative shifts, like cut − W/2
	}
	diag = make([]float64, size)
	shift = make([]float64, size)
	idx = make([]int32, size)
	for i := 0; i < size; i++ {
		k := int32(r.Uint64() % uint64(nLevels))
		idx[i] = k
		shift[i] = lv[k]
		diag[i] = lv[k] + 2.5 // the unshifted expectation table
	}
	return diag, lv, idx, shift
}

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

// referenceEvaluate is the unfused kernel walk the engine must match:
// |+⟩^⊗n, then per layer one phase pass amp_i ← e^{-iγ·shift_i}·amp_i
// and n ApplyRX calls, then ExpectDiagonal.
func referenceEvaluate(t testing.TB, n int, shift, diag, gammas, betas []float64) (float64, *State) {
	t.Helper()
	s, err := NewPlusState(n)
	if err != nil {
		t.Fatal(err)
	}
	for l := range gammas {
		for i := range s.amps {
			sin, cos := math.Sincos(-gammas[l] * shift[i])
			s.amps[i] *= complex(cos, sin)
		}
		for q := 0; q < n; q++ {
			s.ApplyRX(q, 2*betas[l])
		}
	}
	return s.ExpectDiagonal(diag), s
}

// engineParams draws the shared deterministic parameter schedule.
func engineParams(nFull, p int) (gammas, betas []float64) {
	pr := rng.New(uint64(nFull*17 + p))
	gammas = make([]float64, p)
	betas = make([]float64, p)
	for l := 0; l < p; l++ {
		gammas[l] = pr.Float64() * 2 * math.Pi
		betas[l] = pr.Float64() * math.Pi
	}
	return gammas, betas
}

// fixtureTables is the fixtures' cost in the engine's form over the
// first size entries: indexed (levels, their unshifted values, idx) or,
// when dense, (diag, shift).
func fixtureTables(size int, dense bool, diag, levels []float64, idx []int32, shift []float64) CostTables {
	if dense {
		return CostTables{Diag: diag[:size], Shift: shift[:size]}
	}
	values := make([]float64, len(levels))
	for j, v := range levels {
		values[j] = v + 2.5 // the fixtures' diag = level + 2.5
	}
	return CostTables{Levels: levels, Values: values, Idx: idx[:size]}
}

// testEngine builds one configuration of the engine table from FULL
// fixture tables: the reduced engine takes the prefix halves, dense
// selects the (diag, shift) form over the indexed one. ok is false when
// the reduction leaves no index qubit.
func testEngine(t testing.TB, nFull int, z2 bool, dense bool,
	diag, levels []float64, idx []int32, shift []float64) (eng *Engine, ok bool) {
	t.Helper()
	nEff := nFull
	if z2 {
		nEff--
	}
	if nEff < 1 {
		return nil, false
	}
	eng, err := NewEngine(nFull, z2, fixtureTables(1<<uint(nEff), dense, diag, levels, idx, shift))
	if err != nil {
		t.Fatal(err)
	}
	return eng, true
}

// bothPhases is the engine table's phase axis: indexed, then dense.
var bothPhases = []bool{false, true}

// checkEngineTable pins the engine configurations z2s × indexed/dense
// phase × every kernel tier against the unfused kernel walk at 1e-12,
// energy AND amplitudes (reduced states expanded first). It also
// requires re-evaluation to be bit-stable (buffer reuse, first-layer
// in-place synthesis). The size list crosses every sweep regime:
// single-tile reduced vectors with the scalar boundary pass, vectors
// below, at and above lowBlockQubits, and high groups live.
func checkEngineTable(t *testing.T, z2s []bool) {
	t.Helper()
	kernelTiers(t, func(t *testing.T) {
		for _, nFull := range []int{1, 2, 3, 4, 6, 9, 11, 12, 14, 16} {
			for p := 1; p <= 3; p++ {
				gammas, betas := engineParams(nFull, p)
				for _, z2 := range z2s {
					fixture := engineFixture
					if z2 {
						fixture = z2Fixture
					}
					diag, levels, idx, shift := fixture(t, nFull, uint64(nFull*41+p))
					want, ws := referenceEvaluate(t, nFull, shift, diag, gammas, betas)
					for _, dense := range bothPhases {
						eng, ok := testEngine(t, nFull, z2, dense, diag, levels, idx, shift)
						if !ok {
							continue
						}
						name := fmt.Sprintf("n=%d p=%d z2=%v dense=%v", nFull, p, z2, dense)
						got := eng.Evaluate(gammas, betas)
						if math.Abs(got-want) > 1e-12 {
							t.Fatalf("%s: energy %v, want %v", name, got, want)
						}
						st := eng.State()
						if z2 {
							if st.Z2Full() != nFull || st.Len() != 1<<uint(nFull-1) {
								t.Fatalf("%s: state not reduced: Z2Full=%d Len=%d", name, st.Z2Full(), st.Len())
							}
							st = st.ExpandZ2()
						}
						if d := maxAmpDiff(st, ws); d > 1e-12 {
							t.Fatalf("%s: amplitudes deviate by %v", name, d)
						}
						if again := eng.Evaluate(gammas, betas); again != got {
							t.Fatalf("%s: re-evaluation drifted: %v then %v", name, got, again)
						}
					}
				}
			}
		}
	})
}

// TestEngineMatchesKernelWalk: the unreduced engine, both phase forms.
func TestEngineMatchesKernelWalk(t *testing.T) { checkEngineTable(t, []bool{false}) }

// TestZ2EngineMatchesKernelWalk: the reduced engine, both phase forms.
func TestZ2EngineMatchesKernelWalk(t *testing.T) { checkEngineTable(t, []bool{true}) }

// TestEngineZeroLayers: p = 0 degenerates to ⟨+|D|+⟩, the uniform mean.
func TestEngineZeroLayers(t *testing.T) {
	diag, levels, idx, shift := engineFixture(t, 6, 5)
	want := 0.0
	for _, v := range diag {
		want += v / float64(len(diag))
	}
	eng, _ := testEngine(t, 6, false, false, diag, levels, idx, shift)
	if got := eng.Evaluate(nil, nil); math.Abs(got-want) > 1e-12 {
		t.Fatalf("p=0 energy %v, want uniform mean %v", got, want)
	}
}

// badShape is one constructor call that must be rejected.
type badShape struct {
	name  string
	nFull int
	z2    bool
	cost  CostTables
}

func checkRejects(t *testing.T, cases []badShape) {
	t.Helper()
	for _, tc := range cases {
		if _, err := NewEngine(tc.nFull, tc.z2, tc.cost); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

// withLevel returns cost with its phase index copied and entry i set to
// level k.
func withLevel(cost CostTables, i int, k int32) CostTables {
	cost.Idx = append([]int32(nil), cost.Idx...)
	cost.Idx[i] = k
	return cost
}

// TestEngineRejectsBadShapes: qubit count, table lengths, the
// exactly-one-form rule and phase index entries past the level table.
func TestEngineRejectsBadShapes(t *testing.T) {
	diag, levels, idx, shift := engineFixture(t, 4, 9)
	indexed := fixtureTables(16, false, diag, levels, idx, shift)
	dense := fixtureTables(16, true, diag, levels, idx, shift)
	both := indexed
	both.Diag, both.Shift = dense.Diag, dense.Shift
	if _, err := NewEngine(4, false, withLevel(indexed, 15, int32(len(levels)-1))); err != nil {
		t.Fatalf("last level refused: %v", err)
	}
	checkRejects(t, []badShape{
		{"short diagonal", 4, false, CostTables{Diag: diag[:3], Shift: shift}},
		{"short phase diagonal", 4, false, CostTables{Diag: diag, Shift: shift[:3]}},
		{"diagonal without phases", 4, false, CostTables{Diag: diag}},
		{"both forms", 4, false, both},
		{"no form", 4, false, CostTables{}},
		{"short phase index", 4, false, CostTables{Levels: levels, Values: indexed.Values, Idx: idx[:7]}},
		{"levels without index", 4, false, CostTables{Levels: levels, Values: indexed.Values}},
		{"levels without values", 4, false, CostTables{Levels: levels, Idx: idx}},
		{"fewer values than levels", 4, false, CostTables{Levels: levels, Values: indexed.Values[:2], Idx: idx}},
		{"zero qubits", 0, false, indexed},
		{"level past the table", 4, false, withLevel(indexed, 15, int32(len(levels)))},
		{"negative level", 4, false, withLevel(indexed, 0, -1)},
	})
}

// TestZ2EngineRejectsBadShapes: the reduced engine takes the prefix
// halves only.
func TestZ2EngineRejectsBadShapes(t *testing.T) {
	zdiag, levels, zidx, zshift := z2Fixture(t, 4, 9)
	half := fixtureTables(8, false, zdiag, levels, zidx, zshift)
	full := fixtureTables(16, false, zdiag, levels, zidx, zshift)
	both := half
	both.Diag, both.Shift = zdiag[:8], zshift[:8]
	checkRejects(t, []badShape{
		{"single-qubit reduction", 1, true, CostTables{Levels: levels[:1], Values: half.Values[:1], Idx: []int32{0}}},
		{"full-length phase index for reduced engine", 4, true, full},
		{"full-length diagonal for reduced engine", 4, true, CostTables{Diag: zdiag, Shift: zshift[:8]}},
		{"full-length dense phase diagonal for reduced engine", 4, true, CostTables{Diag: zdiag[:8], Shift: zshift}},
		{"reduced both forms", 4, true, both},
		{"reduced level past the table", 4, true, withLevel(half, 7, int32(len(levels)))},
	})
}

// checkZeroAlloc pins the acceptance criterion: steady-state objective
// evaluations allocate nothing, for both phase forms and across the
// low-sweep regimes (single tile with the scalar boundary pass,
// mirrored pairs, high groups live).
func checkZeroAlloc(t *testing.T, z2s []bool) {
	t.Helper()
	gammas := []float64{0.3, 1.1, 0.7}
	betas := []float64{0.9, 0.2, 0.5}
	for _, nFull := range []int{9, 13} {
		diag, levels, idx, shift := z2Fixture(t, nFull, 17)
		for _, z2 := range z2s {
			for _, dense := range bothPhases {
				eng, _ := testEngine(t, nFull, z2, dense, diag, levels, idx, shift)
				eng.Evaluate(gammas, betas) // warm up lazy growth, if any
				allocs := testing.AllocsPerRun(20, func() {
					eng.Evaluate(gammas, betas)
				})
				if allocs != 0 {
					t.Fatalf("n=%d z2=%v dense=%v: Evaluate allocates %v objects per call, want 0",
						nFull, z2, dense, allocs)
				}
			}
		}
	}
}

func TestEngineZeroAlloc(t *testing.T)   { checkZeroAlloc(t, []bool{false}) }
func TestZ2EngineZeroAlloc(t *testing.T) { checkZeroAlloc(t, []bool{true}) }

// TestEngineOnExplicitPool runs fused evaluations through a private
// multi-worker pool (the -race coverage for the per-batch expectation
// partials) and requires the energy and every amplitude to equal an
// inline twin's (a one-worker pool) in their float64 bits.
func TestEngineOnExplicitPool(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.Stop()
	n := 15
	diag, levels, idx, shift := engineFixture(t, n, 23)
	gammas := []float64{0.4, 0.8}
	betas := []float64{1.2, 0.3}

	eng, _ := testEngine(t, n, false, false, diag, levels, idx, shift)
	eng.state.pool = pool
	twin, _ := testEngine(t, n, false, false, diag, levels, idx, shift)
	twin.state.pool = inlinePool()
	got, want := eng.Evaluate(gammas, betas), twin.Evaluate(gammas, betas)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pooled energy %v, inline %v", got, want)
	}
	if i := firstBitDiff(eng.amps, twin.amps); i >= 0 {
		t.Fatalf("pooled amp %d = %v, inline %v", i, eng.amps[i], twin.amps[i])
	}
}

// TestEngineEnergyIgnoresWorkerCount pins the reduction shape: the
// energy is a function of the vector's shape, tables, angles and kernel
// tier, so Evaluate returns the same float64 bits on private pools of
// 1 (inline), 2, 3 and 4 workers — in every kernel tier, at
// nFull = 16 and 20, p = 3, reduced and full. Under -short and the race
// detector it stops at nFull = 16.
func TestEngineEnergyIgnoresWorkerCount(t *testing.T) {
	sizes := []int{16, 20}
	if testing.Short() || raceDetector {
		sizes = sizes[:1]
	}
	pools := []*workerPool{inlinePool(), newWorkerPool(2), newWorkerPool(3), newWorkerPool(4)}
	for _, p := range pools[1:] {
		defer p.Stop()
	}
	kernelTiers(t, func(t *testing.T) {
		for _, nFull := range sizes {
			diag, levels, idx, shift := z2Fixture(t, nFull, 9)
			gammas, betas := engineParams(nFull, 3)
			for _, z2 := range []bool{false, true} {
				eng, _ := testEngine(t, nFull, z2, false, diag, levels, idx, shift)
				var want uint64
				for k, p := range pools {
					eng.state.pool = p
					got := math.Float64bits(eng.Evaluate(gammas, betas))
					if k == 0 {
						want = got
					} else if got != want {
						t.Fatalf("nFull=%d z2=%v: energy bits %016x on %d workers, %016x inline",
							nFull, z2, got, p.workers, want)
					}
				}
				eng.Release()
			}
		}
	})
}

// benchmarkEngine times a warm p=3 evaluation of one engine
// configuration.
func benchmarkEngine(b *testing.B, eng *Engine, gammas, betas []float64) {
	eng.Evaluate(gammas, betas)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Evaluate(gammas, betas)
	}
}

var (
	benchGammas = []float64{0.35, 0.7, 1.05}
	benchBetas  = []float64{0.525, 0.35, 0.175}
)

func BenchmarkEngineEvaluate16p3(b *testing.B) {
	diag, levels, idx, shift := engineFixture(b, 16, 41)
	eng, _ := testEngine(b, 16, false, false, diag, levels, idx, shift)
	benchmarkEngine(b, eng, benchGammas, benchBetas)
}

// BenchmarkEngineZ2Evaluate16p3 is the reduced twin of
// BenchmarkEngineEvaluate16p3: same full problem size, half the stored
// amplitudes.
func BenchmarkEngineZ2Evaluate16p3(b *testing.B) { benchmarkEngineZ2(b, 16, 3) }

// BenchmarkEngineZ2Evaluate20p3 is the paper-scale leaf: an 8 MiB
// half-vector, two high groups per layer, nothing cache-resident.
func BenchmarkEngineZ2Evaluate20p3(b *testing.B) { benchmarkEngineZ2(b, 20, 3) }

// BenchmarkEngineZ2Evaluate12p2 is the small-leaf shape of the
// dag-checkpoint workload's p=2 leaves: a 32 KiB half-vector, two mirror
// tile pairs and one high group per layer.
func BenchmarkEngineZ2Evaluate12p2(b *testing.B) { benchmarkEngineZ2(b, 12, 2) }

func benchmarkEngineZ2(b *testing.B, nFull, p int) {
	diag, levels, idx, shift := z2Fixture(b, nFull, 41)
	eng, _ := testEngine(b, nFull, true, false, diag, levels, idx, shift)
	benchmarkEngine(b, eng, benchGammas[:p], benchBetas[:p])
}

// TestEngineIndexCheckNamesFirstBadEntry pins NewEngine's index check
// to the per-entry scan it replaced, in every kernel tier: at every
// index length 2…256, with zero, one or several entries past the level
// table or negative, it refuses exactly the indices holding one, and
// names the first of them in the scan's words.
func TestEngineIndexCheckNamesFirstBadEntry(t *testing.T) {
	levels, values := make([]float64, 5), make([]float64, 5)
	kernelTiers(t, func(t *testing.T) {
		r := rng.New(50)
		for n := 1; n <= 8; n++ {
			for trial := 0; trial < 20; trial++ {
				idx := make([]int32, 1<<uint(n))
				for i := range idx {
					idx[i] = int32(r.Uint64() % 5)
				}
				for bad := trial % 4; bad > 0; bad-- {
					idx[r.Uint64()%uint64(len(idx))] = []int32{5, -1, 1 << 30, -1 << 31}[r.Uint64()%4]
				}
				want := ""
				for i, k := range idx {
					if k < 0 || k >= 5 {
						want = fmt.Sprintf("qsim: engine phase index entry %d is level %d, want one of 5 levels", i, k)
						break
					}
				}
				e, err := NewEngine(n, false, CostTables{Levels: levels, Values: values, Idx: idx})
				switch {
				case want == "" && err != nil:
					t.Fatalf("n=%d: valid index refused: %v", n, err)
				case want != "" && (err == nil || err.Error() != want):
					t.Fatalf("n=%d: error %v, want %q", n, err, want)
				}
				if e != nil {
					e.Release()
				}
			}
		}
	})
}

// TestIndexMaxMatchesScan requires every tier's index check to return
// the portable loop's maximum at lengths 0…300, whichever entry holds
// it: the kernels' prefix, their lanes, or the tail the loop finishes.
func TestIndexMaxMatchesScan(t *testing.T) {
	kernelTiers(t, func(t *testing.T) {
		r := rng.New(51)
		for n := 0; n <= 300; n++ {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(r.Uint64() % 1000)
			}
			if n > 0 && n%3 != 0 {
				idx[r.Uint64()%uint64(n)] = int32(r.Uint64())
			}
			if got, want := indexMax(idx), indexMaxGo(idx); got != want {
				t.Fatalf("length %d: indexMax %d, portable %d", n, got, want)
			}
		}
	})
}
