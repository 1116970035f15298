package backend

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sync"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/synth"
)

// maxPhaseLevels bounds the distinct-cut-value lookup table. Unweighted
// graphs have at most m+1 distinct cut values; weighted graphs can have
// up to 2^n, in which case the fused path falls back to a per-amplitude
// Sincos.
const maxPhaseLevels = 4096

// defaultDistRanks is the rank count "fused-dist" selects when no
// explicit ":N" suffix is given.
const defaultDistRanks = 4

// Fused is the diagonal-cost fast path: because H_C is diagonal in the
// computational basis, the whole e^{-iγ H_C} cost layer is one
// element-wise phase pass e^{-iγ·(cut(x) − W/2)}, and the β mixer is a
// cache-blocked multi-qubit butterfly sweep — no circuit synthesis, no
// gate list, no per-evaluation allocation. Prepare compiles the cost
// diagonal into a persistent qsim.Engine that fuses the phase pass, the
// initial-state preparation and the energy reduction into the blocked
// mixer sweeps (see qsim/engine.go). The −W/2 shift reproduces the
// global phase the RZZ-product gate walk accrues, keeping Fused
// amplitude-identical to Dense (the parity tests pin this to 1e-12).
//
// Fused ignores synthesis preferences: there is no circuit to lower or
// route, so Report() is zero and Layout() is the identity. Callers that
// need synthesis metrics use Dense (backend.Default selects it when
// preferences are set).
//
// By default the fused path also exploits the Z2 spin-flip symmetry of
// the QAOA-for-MaxCut evolution (qsim/z2.go): H_C and the RX mixer
// commute with X^⊗n and |+⟩^⊗n is symmetric, so the state stays in the
// even sector and the engine stores only the 2^(n−1) pair
// representatives — half the memory and roughly half the sweep time at
// every size. The reduction is exact (the parity tests pin it to the
// Dense walk at 1e-12), and the returned states report full-space
// measurement results (z2.go), so consumers cannot tell the difference.
// Set Full (backend name "fused-full"), or the environment variable
// QAOA2_NOZ2, to force the unreduced engine — the A/B control for
// benchmarks and for bisecting any suspected reduction issue.
//
// Ranks ≥ 1 ("fused-dist:N") runs the same engine over N statevector
// slices of the in-process hpc comm world: cost layers stay rank-local
// (diagonals never communicate) and only the top log2(N) qubits' mixer
// rotations run as pairwise slice exchanges — the paper's §4
// multi-node decomposition, metered through qsim.DistStats. Rank count
// is a CONFIG knob, not a capacity requirement: sub-graphs too small to
// give every rank at least one local qubit are clamped to the largest
// valid power of two, so QAOA² leaf solves of any size run under one
// backend selection. At one rank the engine is the inline single-node
// one (held at fused-z2 cost by the bench ratio gate).
type Fused struct {
	// Full disables the Z2 symmetry reduction and simulates all 2^n
	// amplitudes.
	Full bool
	// Ranks is the statevector slice count (a power of two). 0 selects
	// the single-node engine with the native batch path ("fused",
	// "fused-full"); N ≥ 1 names the backend "fused-dist:N".
	Ranks int
}

// Name implements Backend, matching the ByName spelling.
func (f Fused) Name() string {
	switch {
	case f.Ranks != 0:
		return fmt.Sprintf("fused-dist:%d", f.Ranks)
	case f.Full:
		return "fused-full"
	}
	return "fused"
}

// Prepare implements Backend: computes the cost diagonal once — cut
// tables satisfy cut(x) = cut(~x), so every graph is Z2-eligible — and
// compiles it into the fused engine.
func (f Fused) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	if err := checkGraph(g, cfg); err != nil {
		return nil, err
	}
	return f.prepare(CutTable(g, nil), -g.TotalWeight()/2, true, cfg.Layers)
}

// prepare is the preamble Prepare and PrepareIsing share: the Z2
// decision, the phase tables, the rank clamp and the engine build. diag
// is the full expectation table, diag[i] + add the phase diagonal, and
// symmetric reports diag(x) == diag(~x). When the diagonal has few
// distinct values the phase tables take an indexed form that replaces
// per-amplitude trigonometry with a per-level lookup.
func (f Fused) prepare(diag []float64, add float64, symmetric bool, layers int) (Ansatz, error) {
	if f.Ranks < 0 || f.Ranks&(f.Ranks-1) != 0 {
		return nil, fmt.Errorf("backend: fused-dist rank count %d is not a power of two", f.Ranks)
	}
	fa := &fusedAnsatz{}
	a := &fa.engineAnsatz
	a.n, a.layers, a.diag = bits.Len(uint(len(diag)))-1, layers, diag
	// The Z2-reduced engine needs a pair to fold, i.e. at least two
	// qubits; its phase tables are the prefix halves.
	a.z2 = !f.Full && symmetric && a.n >= 2 && os.Getenv("QAOA2_NOZ2") == ""
	nEff, phaseLen := a.n, len(diag)
	if a.z2 {
		nEff, phaseLen = nEff-1, phaseLen/2
	}
	// Clamp: every rank must keep at least one local qubit of the
	// (possibly reduced) index space. Small QAOA² leaves routinely hit
	// this; the backend stays selectable at any sub-graph size.
	a.ranks = min(max(f.Ranks, 1), 1<<uint(nEff-1))
	a.levels, a.idx, a.shift = phaseTables(diag, add, phaseLen)
	eng, err := a.newEngine()
	if err != nil {
		return nil, err
	}
	a.eng = eng
	if f.Ranks != 0 {
		return a, nil
	}
	return fa, nil
}

// phaseCacheBits sizes phaseTables' direct-mapped value cache: 1024
// slots hold every level of an unweighted leaf (at most m+1 ≈ 100) with
// few collisions, and fit the stack.
const phaseCacheBits = 10

// phaseTables compiles the phase diagonal shift[i] = diag[i] + add,
// i < n, into the form the engines take: factored as (levels, idx) with
// shift[i] = levels[idx[i]] and levels ascending when it has at most
// maxPhaseLevels distinct values, else dense as shift (the per-amplitude
// Sincos fallback). Exactly one form is non-nil, and the indexed path
// never materialises the dense table — 2^n float64 the engines would
// not read.
//
// Both passes resolve a value through a direct-mapped cache keyed by a
// hash of its bits, and fall back to a binary search of the sorted
// levels only on a cache miss: a cut table has few distinct values, so
// nearly every amplitude costs one multiply and one compare.
func phaseTables(diag []float64, add float64, n int) (levels []float64, idx []int32, shift []float64) {
	diag = diag[:n]
	var keys [1 << phaseCacheBits]float64 // value last resolved in each slot
	var at [1 << phaseCacheBits]int32     // its position in levels (second pass)
	slot := func(v float64) uint64 {
		return math.Float64bits(v) * 0x9e3779b97f4a7c15 >> (64 - phaseCacheBits)
	}
	forget := func() {
		for h := range keys {
			keys[h] = math.NaN() // equal to no value
		}
	}

	forget()
	levels = make([]float64, 0, 64)
	for _, d := range diag {
		v := d + add
		h := slot(v)
		if keys[h] == v {
			continue
		}
		keys[h] = v
		j, found := slices.BinarySearch(levels, v)
		if found {
			continue
		}
		if len(levels) == maxPhaseLevels || v != v {
			shift = make([]float64, n)
			for i := range shift {
				shift[i] = diag[i] + add
			}
			return nil, nil, shift
		}
		levels = slices.Insert(levels, j, v)
	}

	forget()
	idx = make([]int32, n)
	for i, d := range diag {
		v := d + add
		h := slot(v)
		if keys[h] != v {
			j, _ := slices.BinarySearch(levels, v)
			keys[h], at[h] = v, int32(j)
		}
		idx[i] = at[h]
	}
	return levels, idx, nil
}

// engineAnsatz is a prepared fused ansatz: the compiled tables and the
// engine built over them.
type engineAnsatz struct {
	n, layers int
	ranks     int       // effective (clamped) slice count
	z2        bool      // engines run on the Z2-reduced half-vector
	diag      []float64 // FULL expectation table, the ⟨H_C⟩ diagonal
	shift     []float64 // phase diagonal (nil on the indexed path; half-length when z2)
	levels    []float64 // distinct shift values (nil → Sincos fallback)
	idx       []int32   // shift[i] = levels[idx[i]] (half-length when z2)
	eng       *qsim.Engine
}

// fusedAnsatz is the single-node engineAnsatz plus the native batch
// path.
type fusedAnsatz struct {
	engineAnsatz
	// batch holds one serial-mode engine per batch worker, sharing the
	// read-only tables; grown lazily by EvaluateBatch.
	batch []*qsim.Engine
}

// newEngine builds an execution engine over the ansatz's shared tables.
// Diagonal() must keep returning the full 2^n table (sampled-energy
// decoding indexes it with full basis states), so the reduced engine
// takes the prefix half as a sub-slice.
func (a *engineAnsatz) newEngine() (*qsim.Engine, error) {
	diag := a.diag
	if a.z2 {
		diag = diag[:len(diag)/2]
	}
	return qsim.NewEngine(a.n, a.z2, a.ranks, diag, a.levels, a.idx, a.shift)
}

// Evaluate implements Ansatz. The returned state is the engine's reused
// buffer, valid until the next Evaluate; on the default Z2 path it is a
// reduced state (qsim.State with Z2Full() != 0), whose measurement
// accessors are bit-identical to the expanded statevector's.
func (a *engineAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	if err := checkParams(a.layers, gammas, betas); err != nil {
		return 0, nil, err
	}
	return a.eng.Evaluate(gammas, betas), a.eng.State(), nil
}

// Ranks returns the effective slice count after small-graph clamping.
func (a *engineAnsatz) Ranks() int { return a.ranks }

// Stats exposes the engine's communication ledger for scaling
// experiments and bench provenance.
func (a *engineAnsatz) Stats() qsim.DistStats { return a.eng.Stats() }

// EvaluateBatch implements BatchEvaluator: the K parameter vectors are
// striped over min(K, GOMAXPROCS) workers, each owning a persistent
// serial-mode engine (outer parallelism saturates the cores, so inner
// kernel parallelism is disabled). Worker engines share the prepared
// cost tables; only the 2^n statevector buffer is per-worker, and it is
// reused across calls. Not safe for concurrent use with itself or
// Evaluate. The worker count is sized for one batching ansatz per
// process; callers that batch on MANY ansätze concurrently (QAOA² with
// multi-start sub-solves) should keep the product of their outer
// parallelism and K near the core count — see qaoa2.Options.Restarts.
func (a *fusedAnsatz) EvaluateBatch(gammas, betas [][]float64, energies []float64) error {
	if err := checkBatchParams(a.layers, gammas, betas, energies); err != nil {
		return err
	}
	k := len(gammas)
	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	for len(a.batch) < workers {
		eng, err := a.newEngine()
		if err != nil {
			return err
		}
		eng.SetSerial(true)
		a.batch = append(a.batch, eng)
	}
	if workers == 1 {
		for i := range gammas {
			energies[i] = a.batch[0].Evaluate(gammas[i], betas[i])
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < k; i += workers {
				energies[i] = a.batch[w].Evaluate(gammas[i], betas[i])
			}
		}(w)
	}
	wg.Wait()
	return nil
}

// Diagonal implements Ansatz.
func (a *engineAnsatz) Diagonal() []float64 { return a.diag }

// Layout implements Ansatz: always identity.
func (a *engineAnsatz) Layout() []int { return nil }

// Report implements Ansatz: no circuit is synthesized.
func (a *engineAnsatz) Report() synth.Report { return synth.Report{} }
