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

// distParams draws the shared deterministic parameter schedule.
func distParams(nFull, p int) (gammas, betas []float64) {
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
// the rank count leaves a rank without a local qubit.
func testEngine(t testing.TB, nFull int, z2 bool, ranks int, dense bool,
	diag, levels []float64, idx []int32, shift []float64) (eng *Engine, ok bool) {
	t.Helper()
	nEff := nFull
	if z2 {
		nEff--
	}
	if nEff < 1 || ranks > 1<<uint(nEff-1) {
		return nil, false
	}
	eng, err := NewEngine(nFull, z2, ranks, fixtureTables(1<<uint(nEff), dense, diag, levels, idx, shift))
	if err != nil {
		t.Fatal(err)
	}
	return eng, true
}

// The engine table spans z2 × ranks × indexed/dense phase; each
// MatchesKernelWalk test below runs one slice of it through
// checkEngineTable: inline (ranks 1) and sharded, reduced and
// unreduced, indexed and dense phases.
var (
	inlineRanks  = []int{1}
	shardedRanks = []int{2, 4, 8}
	bothPhases   = []bool{false, true}
	indexedPhase = []bool{false}
)

// checkEngineTable pins the engine configurations z2s × ranks × dense
// × assembly/portable tile kernel against the unfused kernel walk at
// 1e-12, energy AND amplitudes (reduced states expanded first). It also
// gates the measured exchange volume against both closed forms exactly
// and requires re-evaluation to be bit-stable (buffer reuse, first-layer
// in-place synthesis). The size list crosses every sweep regime:
// single-tile reduced vectors with the scalar boundary pass, windows
// below, at and above lowBlockQubits, and local high groups live.
func checkEngineTable(t *testing.T, z2s []bool, rankList []int, denses []bool) {
	t.Helper()
	saved := useMixerAsm
	defer func() { useMixerAsm = saved }()
	for _, asm := range []bool{false, saved} {
		useMixerAsm = asm
		for _, nFull := range []int{1, 2, 3, 4, 6, 9, 11, 12, 14, 16} {
			for p := 1; p <= 3; p++ {
				gammas, betas := distParams(nFull, p)
				for _, z2 := range z2s {
					fixture := engineFixture
					if z2 {
						fixture = z2Fixture
					}
					diag, levels, idx, shift := fixture(t, nFull, uint64(nFull*41+p))
					want, ws := referenceEvaluate(t, nFull, shift, diag, gammas, betas)
					for _, ranks := range rankList {
						for _, dense := range denses {
							eng, ok := testEngine(t, nFull, z2, ranks, dense, diag, levels, idx, shift)
							if !ok {
								continue
							}
							name := fmt.Sprintf("asm=%v n=%d p=%d z2=%v ranks=%d dense=%v", asm, nFull, p, z2, ranks, dense)
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
							sent := eng.Stats().BytesSent
							if closed := eng.CommBytesExpected(p); sent != closed {
								t.Fatalf("%s: BytesSent=%d, closed form says %d", name, sent, closed)
							}
							if again := eng.Evaluate(gammas, betas); again != got {
								t.Fatalf("%s: re-evaluation drifted: %v then %v", name, got, again)
							}
							eng.Stop()
						}
					}
				}
			}
		}
	}
	if !saved {
		t.Log("assembly tile kernel not available on this machine; Go fallback covered")
	}
}

// TestEngineMatchesKernelWalk: the inline unreduced engine, both phase
// forms.
func TestEngineMatchesKernelWalk(t *testing.T) {
	checkEngineTable(t, []bool{false}, inlineRanks, bothPhases)
}

// TestZ2EngineMatchesKernelWalk: the inline reduced engine, both phase
// forms.
func TestZ2EngineMatchesKernelWalk(t *testing.T) {
	checkEngineTable(t, []bool{true}, inlineRanks, bothPhases)
}

// TestDistEngineMatchesKernelWalk: the unreduced engine over 2, 4 and 8
// rank slices, indexed phase.
func TestDistEngineMatchesKernelWalk(t *testing.T) {
	checkEngineTable(t, []bool{false}, shardedRanks, indexedPhase)
}

// TestDistZ2EngineMatchesKernelWalk: the reduced engine over 2, 4 and 8
// rank slices (mirror exchanges for the boundary rotation), indexed
// phase.
func TestDistZ2EngineMatchesKernelWalk(t *testing.T) {
	checkEngineTable(t, []bool{true}, shardedRanks, indexedPhase)
}

// TestDistEngineDensePhase: the dense shift-table phase over rank
// slices, reduced and unreduced.
func TestDistEngineDensePhase(t *testing.T) {
	checkEngineTable(t, []bool{false, true}, shardedRanks, []bool{true})
}

// checkZeroLayers: p = 0 degenerates to ⟨+|D|+⟩, the uniform mean,
// and moves no data between ranks.
func checkZeroLayers(t *testing.T, ranks int) {
	t.Helper()
	diag, levels, idx, shift := engineFixture(t, 6, 5)
	want := 0.0
	for _, v := range diag {
		want += v / float64(len(diag))
	}
	eng, _ := testEngine(t, 6, false, ranks, false, diag, levels, idx, shift)
	defer eng.Stop()
	if got := eng.Evaluate(nil, nil); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ranks=%d: p=0 energy %v, want uniform mean %v", ranks, got, want)
	}
	if st := eng.Stats(); st.BytesSent != 0 || st.MessagesSent != 0 || st.CommGates != 0 {
		t.Fatalf("ranks=%d: p=0 moved data: %+v", ranks, st)
	}
}

func TestEngineZeroLayers(t *testing.T)     { checkZeroLayers(t, 1) }
func TestDistEngineZeroLayers(t *testing.T) { checkZeroLayers(t, 4) }

// badShape is one constructor call that must be rejected.
type badShape struct {
	name  string
	nFull int
	z2    bool
	ranks int
	cost  CostTables
}

func checkRejects(t *testing.T, cases []badShape) {
	t.Helper()
	for _, tc := range cases {
		if _, err := NewEngine(tc.nFull, tc.z2, tc.ranks, tc.cost); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

// TestEngineRejectsBadShapes: qubit count, table lengths and the
// exactly-one-form rule of the inline engine.
func TestEngineRejectsBadShapes(t *testing.T) {
	diag, levels, idx, shift := engineFixture(t, 4, 9)
	indexed := fixtureTables(16, false, diag, levels, idx, shift)
	dense := fixtureTables(16, true, diag, levels, idx, shift)
	both := indexed
	both.Diag, both.Shift = dense.Diag, dense.Shift
	checkRejects(t, []badShape{
		{"short diagonal", 4, false, 1, CostTables{Diag: diag[:3], Shift: shift}},
		{"short phase diagonal", 4, false, 1, CostTables{Diag: diag, Shift: shift[:3]}},
		{"diagonal without phases", 4, false, 1, CostTables{Diag: diag}},
		{"both forms", 4, false, 1, both},
		{"no form", 4, false, 1, CostTables{}},
		{"short phase index", 4, false, 1, CostTables{Levels: levels, Values: indexed.Values, Idx: idx[:7]}},
		{"levels without index", 4, false, 1, CostTables{Levels: levels, Values: indexed.Values}},
		{"levels without values", 4, false, 1, CostTables{Levels: levels, Idx: idx}},
		{"fewer values than levels", 4, false, 1, CostTables{Levels: levels, Values: indexed.Values[:2], Idx: idx}},
		{"zero qubits", 0, false, 1, indexed},
	})
}

// TestDistEngineValidation: rank counts and the sharded table rules.
func TestDistEngineValidation(t *testing.T) {
	diag, levels, idx, shift := engineFixture(t, 4, 9)
	indexed := fixtureTables(16, false, diag, levels, idx, shift)
	both := indexed
	both.Diag, both.Shift = diag, shift
	checkRejects(t, []badShape{
		{"zero rank count", 4, false, 0, indexed},
		{"non-power-of-two rank count", 4, false, 3, indexed},
		{"rank count leaving no local qubits", 4, false, 16, indexed},
		{"sharded short diagonal", 4, false, 2, CostTables{Diag: diag[:7], Shift: shift}},
		{"sharded both forms", 4, false, 2, both},
		{"sharded no form", 4, false, 2, CostTables{}},
		{"sharded levels without index", 4, false, 2, CostTables{Levels: levels, Values: indexed.Values}},
	})
}

// TestZ2EngineRejectsBadShapes: the reduced engine takes the prefix
// halves only and needs a sharded index space of at least one qubit
// per rank.
func TestZ2EngineRejectsBadShapes(t *testing.T) {
	zdiag, levels, zidx, zshift := z2Fixture(t, 4, 9)
	half := fixtureTables(8, false, zdiag, levels, zidx, zshift)
	full := fixtureTables(16, false, zdiag, levels, zidx, zshift)
	both := half
	both.Diag, both.Shift = zdiag[:8], zshift[:8]
	checkRejects(t, []badShape{
		{"single-qubit reduction", 1, true, 1, CostTables{Levels: levels[:1], Values: half.Values[:1], Idx: []int32{0}}},
		{"full-length phase index for reduced engine", 4, true, 1, full},
		{"full-length diagonal for reduced engine", 4, true, 1, CostTables{Diag: zdiag, Shift: zshift[:8]}},
		{"full-length dense phase diagonal for reduced engine", 4, true, 1, CostTables{Diag: zdiag[:8], Shift: zshift}},
		{"reduced both forms", 4, true, 1, both},
		{"reduced rank count beyond half-vector", 4, true, 8, half},
	})
}

// checkZeroAlloc pins the acceptance criterion: steady-state objective
// evaluations allocate nothing, for both phase forms and across the
// low-sweep regimes (single tile with the scalar boundary pass,
// mirrored pairs local and exchanged, high groups live).
func checkZeroAlloc(t *testing.T, z2s []bool, rankList []int) {
	t.Helper()
	gammas := []float64{0.3, 1.1, 0.7}
	betas := []float64{0.9, 0.2, 0.5}
	for _, nFull := range []int{9, 13} {
		diag, levels, idx, shift := z2Fixture(t, nFull, 17)
		for _, z2 := range z2s {
			for _, ranks := range rankList {
				for _, dense := range bothPhases {
					eng, _ := testEngine(t, nFull, z2, ranks, dense, diag, levels, idx, shift)
					eng.Evaluate(gammas, betas) // warm up lazy growth, if any
					allocs := testing.AllocsPerRun(20, func() {
						eng.Evaluate(gammas, betas)
					})
					eng.Stop()
					if allocs != 0 {
						t.Fatalf("n=%d z2=%v ranks=%d dense=%v: Evaluate allocates %v objects per call, want 0",
							nFull, z2, ranks, dense, allocs)
					}
				}
			}
		}
	}
}

func TestEngineZeroAlloc(t *testing.T)   { checkZeroAlloc(t, []bool{false}, inlineRanks) }
func TestZ2EngineZeroAlloc(t *testing.T) { checkZeroAlloc(t, []bool{true}, inlineRanks) }

// TestDistEngineZeroAllocLocal: every rank sweeps its slice locally and
// the exchanges carry slices unboxed, so a warm sharded evaluation
// allocates nothing either, reduced and unreduced.
func TestDistEngineZeroAllocLocal(t *testing.T) {
	checkZeroAlloc(t, []bool{false, true}, []int{2, 4})
}

// checkStatsLedger hand-computes the fused comm pattern's ledger on 8
// full qubits over 4 ranks, the engine counterpart of
// TestDistStatsCounts.
func checkStatsLedger(t *testing.T, z2 bool, p int, want DistStats) {
	t.Helper()
	diag, levels, idx, shift := z2Fixture(t, 8, 13)
	eng, _ := testEngine(t, 8, z2, 4, false, diag, levels, idx, shift)
	defer eng.Stop()
	gammas, betas := distParams(8, p)
	eng.Evaluate(gammas, betas)
	if got := eng.Stats(); got != want {
		t.Fatalf("z2=%v: ledger %+v, want %+v", z2, got, want)
	}
	if closed := eng.CommBytesExpected(p); closed != want.BytesSent {
		t.Fatalf("z2=%v: closed form %d, want %d", z2, closed, want.BytesSent)
	}
}

// TestDistEngineStatsLedger: 2 global qubits and 64-amplitude slices at
// p=2 run one fused local sweep and two exchange rounds per layer —
// every round is 4 slice messages of 64·16 bytes.
func TestDistEngineStatsLedger(t *testing.T) {
	checkStatsLedger(t, false, 2, DistStats{
		LocalGates:   2,         // 1 fused low sweep per layer (no high groups at 6 local qubits)
		CommGates:    4,         // 2 global qubits × 2 layers
		MessagesSent: 16,        // 4 exchange rounds × 4 ranks
		BytesSent:    16 * 1024, // 16 messages × 64 amplitudes × 16 bytes
	})
}

// TestDistZ2EngineStatsLedger: the reduced schedule (7 sharded qubits
// in 32-amplitude slices, p=3) adds one mirror exchange per layer AFTER
// the first: the first layer synthesizes phase·|+⟩ and reads no partner
// amplitudes.
func TestDistZ2EngineStatsLedger(t *testing.T) {
	checkStatsLedger(t, true, 3, DistStats{
		LocalGates:   3,        // 1 fused mirror sweep per layer
		CommGates:    8,        // 2 global qubits × 3 layers + 2 mirror exchanges
		MessagesSent: 32,       // 8 exchange rounds × 4 ranks
		BytesSent:    32 * 512, // 32 messages × 32 amplitudes × 16 bytes
	})
}

// TestEngineOnExplicitPool runs fused evaluations through a private
// multi-worker pool (the -race coverage for the chunked expectation
// reduction).
func TestEngineOnExplicitPool(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.Stop()
	n := 15
	diag, levels, idx, shift := engineFixture(t, n, 23)
	gammas := []float64{0.4, 0.8}
	betas := []float64{1.2, 0.3}

	eng, _ := testEngine(t, n, false, 1, false, diag, levels, idx, shift)
	eng.state.pool = pool
	got := eng.Evaluate(gammas, betas)
	want, ws := referenceEvaluate(t, n, shift, diag, gammas, betas)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("pooled energy %v, want %v", got, want)
	}
	if d := maxAmpDiff(eng.State(), ws); d > 1e-12 {
		t.Fatalf("pooled amplitudes deviate by %v", d)
	}
}

// benchmarkEngine times a warm p=3 evaluation of one engine
// configuration.
func benchmarkEngine(b *testing.B, eng *Engine, gammas, betas []float64) {
	defer eng.Stop()
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
	eng, _ := testEngine(b, 16, false, 1, false, diag, levels, idx, shift)
	benchmarkEngine(b, eng, benchGammas, benchBetas)
}

// BenchmarkEngineZ2Evaluate16p3 is the reduced twin of
// BenchmarkEngineEvaluate16p3: same full problem size, half the stored
// amplitudes.
func BenchmarkEngineZ2Evaluate16p3(b *testing.B) { benchmarkEngineZ2(b, 16) }

// BenchmarkEngineZ2Evaluate20p3 is the paper-scale leaf: an 8 MiB
// half-vector, two high groups per layer, nothing cache-resident.
func BenchmarkEngineZ2Evaluate20p3(b *testing.B) { benchmarkEngineZ2(b, 20) }

func benchmarkEngineZ2(b *testing.B, nFull int) {
	diag, levels, idx, shift := z2Fixture(b, nFull, 41)
	eng, _ := testEngine(b, nFull, true, 1, false, diag, levels, idx, shift)
	benchmarkEngine(b, eng, benchGammas, benchBetas)
}

func BenchmarkDistEngine16Q3PRanks1(b *testing.B) { benchmarkDistEngine(b, 16, 1) }
func BenchmarkDistEngine16Q3PRanks4(b *testing.B) { benchmarkDistEngine(b, 16, 4) }

func benchmarkDistEngine(b *testing.B, n, ranks int) {
	diag, levels, idx, shift := engineFixture(b, n, 9)
	eng, _ := testEngine(b, n, false, ranks, false, diag, levels, idx, shift)
	gammas, betas := distParams(n, 3)
	benchmarkEngine(b, eng, gammas, betas)
}
