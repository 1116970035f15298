package backend

import (
	"math"
	"slices"
	"sync"

	"qaoa2/internal/graph"
	"qaoa2/internal/qsim"
	"qaoa2/internal/synth"
)

// maxPhaseLevels bounds the distinct-cut-value lookup table. Unweighted
// graphs have at most m+1 distinct cut values; weighted graphs can have
// up to 2^n, in which case the fused path falls back to a per-amplitude
// Sincos. It also bounds the integral build (cutLevels): a graph takes
// it only when Σ|w| + 1 ≤ maxPhaseLevels.
const maxPhaseLevels = 4096

// Fused is the diagonal-cost fast path: because H_C is diagonal in the
// computational basis, the whole e^{-iγ H_C} cost layer is one
// element-wise phase pass e^{-iγ·(cut(x) − W/2)}, and the β mixer is a
// cache-blocked multi-qubit butterfly sweep — no circuit synthesis, no
// gate list, no per-evaluation allocation. Prepare builds the cost
// diagonal once, in the only form the engine reads — a level index over
// the engine's own index space (qsim.CostTables) — and compiles it into
// a persistent qsim.Engine that fuses the phase pass, the initial-state
// preparation and the energy reduction into the blocked mixer sweeps
// (see qsim/engine.go). The −W/2 shift reproduces the
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
// Set Full (backend name "fused-full") to force the unreduced engine —
// the A/B control for benchmarks and for bisecting any suspected
// reduction issue.
//
// Parallelism inside one ansatz is the engine's alone: Evaluate splits
// every sweep over the shared kernel pool, and EvaluateBatch runs its
// vectors one after another on the same engine.
type Fused struct {
	// Full disables the Z2 symmetry reduction and simulates all 2^n
	// amplitudes.
	Full bool
}

// Name implements Backend, matching the ByName spelling.
func (f Fused) Name() string {
	if f.Full {
		return "fused-full"
	}
	return "fused"
}

// Prepare implements Backend: builds the cost tables once over the
// engine's index space and compiles them into the fused engine. Cut
// tables satisfy cut(x) = cut(~x), so every graph of at least two nodes
// (a pair to fold) runs on the Z2-reduced engine, whose tables are the
// prefix halves. A graph inside integralSpan's guard (every QAOA² leaf
// of an unweighted instance) takes cutLevels and never holds a float64
// cut table; any other graph takes CutTable and phaseTables.
func (f Fused) Prepare(g *graph.Graph, cfg Config) (Ansatz, error) {
	if err := checkGraph(g, cfg); err != nil {
		return nil, err
	}
	n := g.N()
	a := &fusedAnsatz{n: n, layers: cfg.Layers}
	a.z2 = !f.Full && n >= 2
	k := n
	if a.z2 {
		k--
	}
	add := -g.TotalWeight() / 2
	a.idx = takeIndex(k)
	if lo, ok := integralSpan(g); ok {
		a.cost = cutLevels(g, *a.idx, lo, add)
	} else {
		a.diag = CutTable(g, nil)
		a.cost = phaseTables(a.diag, add, *a.idx)
	}
	eng, err := a.newEngine()
	if err != nil {
		return nil, err
	}
	a.eng = eng
	return a, nil
}

// integralSpan reports whether g takes the integral build (cutLevels):
// graph.IntegralWeights holds and Σ|w| + 1 ≤ maxPhaseLevels, so every
// cut value is one of the Σ|w| + 1 integers from lo = Σ_{w<0} w up. The
// span guard is also what keeps cutLevels' int32 recurrence from
// overflowing: every value it forms — a level index, or a partial sum
// of one wire's δ — stays within 3·Σ|w| < 2^14 in magnitude.
func integralSpan(g *graph.Graph) (lo int, ok bool) {
	if !g.IntegralWeights() {
		return 0, false
	}
	span := 0.0
	for _, e := range g.Edges() {
		span += math.Abs(e.W)
		lo += min(int(e.W), 0)
	}
	return lo, span+1 <= maxPhaseLevels
}

// cutLevels is the integral build: CutTable's doubling recurrence run
// in int32 over the first k wires — the engine's own index space of
// 2^k = len(idx) entries, the Z2 prefix half when k = n − 1 — writing
// each entry of idx as its level index cut(x) − lo. One pass over the
// result then takes the largest and smallest index, so the levels
// cover exactly the cut range: level j has value float64(lo' + j) and
// phase that value + add, with lo' the smallest cut. Under
// integralSpan every CutTable entry is that integer exactly, so
// Values[Idx[x]] == CutTable(g, nil)[x] and the phases are
// phaseTables' own, without the 2^n float64 table.
func cutLevels(g *graph.Graph, idx []int32, lo int, add float64) qsim.CostTables {
	idx[0] = int32(-lo) // cut(0) = 0
	doubleCuts(g, nil, idx)
	first, last := span(idx)
	if first > 0 {
		// Negative edges no cut can take all of: start the levels at the
		// smallest cut rather than at Σ_{w<0} w.
		for i := range idx {
			idx[i] -= first
		}
	}
	levels := make([]float64, last-first+1)
	values := make([]float64, len(levels))
	for j := range values {
		values[j] = float64(lo + int(first) + j)
		levels[j] = values[j] + add
	}
	return qsim.CostTables{Levels: levels, Values: values, Idx: idx}
}

// span returns the smallest and largest entry of a non-empty idx in one
// pass of four independent branch-free min/max chains.
func span(idx []int32) (lo, hi int32) {
	l0, l1, l2, l3 := idx[0], idx[0], idx[0], idx[0]
	h0, h1, h2, h3 := l0, l0, l0, l0
	i := 0
	for ; i+4 <= len(idx); i += 4 {
		q := idx[i : i+4 : i+4]
		l0, h0 = min(l0, q[0]), max(h0, q[0])
		l1, h1 = min(l1, q[1]), max(h1, q[1])
		l2, h2 = min(l2, q[2]), max(h2, q[2])
		l3, h3 = min(l3, q[3]), max(h3, q[3])
	}
	for _, v := range idx[i:] {
		l0, h0 = min(l0, v), max(h0, v)
	}
	return min(l0, l1, l2, l3), max(h0, h1, h2, h3)
}

// phaseCacheBits sizes phaseTables' direct-mapped value cache: 1024
// slots hold every level of an unweighted leaf (at most m+1 ≈ 100) with
// few collisions, and fit the stack.
const phaseCacheBits = 10

// phaseTables is the float build: it compiles the first n = len(idx)
// entries of a diagonal, with phase diagonal diag[i] + add, into the
// engine's tables. When diag[:n] has at most maxPhaseLevels distinct
// values they take the indexed form — Values the distinct values
// ascending, Idx (written into idx) with Values[Idx[i]] == diag[i],
// Levels[j] = Values[j] + add — else the dense form (diag[:n], and the
// shifted copy for the per-amplitude Sincos fallback). It serves real
// weights and is the tests' oracle for cutLevels.
//
// Both passes resolve a value through a direct-mapped cache keyed by a
// hash of its bits, and fall back to a binary search of the sorted
// values only on a cache miss: a cut table has few distinct values, so
// nearly every entry costs one hash and one compare.
func phaseTables(diag []float64, add float64, idx []int32) qsim.CostTables {
	n := len(idx)
	diag = diag[:n]
	var keys [1 << phaseCacheBits]float64 // value last resolved in each slot
	var at [1 << phaseCacheBits]int32     // its position in values (second pass)
	slot := func(v float64) uint64 {
		return math.Float64bits(v) * 0x9e3779b97f4a7c15 >> (64 - phaseCacheBits)
	}
	forget := func() {
		for h := range keys {
			keys[h] = math.NaN() // equal to no value
		}
	}

	forget()
	values := make([]float64, 0, 64)
	for _, d := range diag {
		h := slot(d)
		if keys[h] == d {
			continue
		}
		keys[h] = d
		j, found := slices.BinarySearch(values, d)
		if found {
			continue
		}
		if len(values) == maxPhaseLevels || d != d {
			shift := make([]float64, n)
			for i := range shift {
				shift[i] = diag[i] + add
			}
			return qsim.CostTables{Diag: diag, Shift: shift}
		}
		values = slices.Insert(values, j, d)
	}

	forget()
	for i, d := range diag {
		h := slot(d)
		if keys[h] != d {
			j, _ := slices.BinarySearch(values, d)
			keys[h], at[h] = d, int32(j)
		}
		idx[i] = at[h]
	}
	levels := make([]float64, len(values))
	for j, v := range values {
		levels[j] = v + add
	}
	return qsim.CostTables{Levels: levels, Values: values, Idx: idx}
}

// fusedAnsatz is a prepared fused ansatz: the compiled tables and the
// engine built over them.
type fusedAnsatz struct {
	n, layers int
	z2        bool            // engines run on the Z2-reduced half-vector
	cost      qsim.CostTables // the engine's tables (half-length when z2)
	idx       *[]int32        // the pooled level index buffer (takeIndex)
	diagOnce  sync.Once
	// diag is the full 2^n ⟨H_C⟩ diagonal Diagonal returns: kept from
	// the float build, built on the first Diagonal call after the
	// integral one (which has no float64 table of its own).
	diag []float64
	eng  *qsim.Engine
}

// newEngine builds an execution engine over the ansatz's shared tables.
func (a *fusedAnsatz) newEngine() (*qsim.Engine, error) {
	return qsim.NewEngine(a.n, a.z2, a.cost)
}

// indexPools holds released level index buffers, one free list per
// length 2^k. Like the engines' free lists (qsim.Engine.Release) they
// are sync.Pools, emptied by two garbage collections; they hold
// *[]int32, so a Put stores a pointer and allocates nothing.
var indexPools [qsim.MaxQubits + 1]sync.Pool

// takeIndex returns a level index buffer of 2^k entries, a released
// one when its pool holds one. Its contents are unspecified: both
// builds write every entry.
func takeIndex(k int) *[]int32 {
	if idx, ok := indexPools[k].Get().(*[]int32); ok {
		return idx
	}
	idx := make([]int32, 1<<uint(k))
	return &idx
}

// Release implements Releaser: it hands the engine and the level index
// back to their pools. Every state the ansatz returned is empty
// afterwards; the ansatz must not be used again. A second call does
// nothing.
func (a *fusedAnsatz) Release() {
	if a.eng == nil {
		return
	}
	a.eng.Release()
	k := a.n
	if a.z2 {
		k--
	}
	indexPools[k].Put(a.idx)
	a.eng, a.idx, a.cost.Idx = nil, nil, nil
}

// Evaluate implements Ansatz. The returned state is the engine's reused
// buffer, valid until the next Evaluate or Release; on the default Z2
// path it is a reduced state (qsim.State with Z2Full() != 0), whose
// measurement accessors are bit-identical to the expanded statevector's.
func (a *fusedAnsatz) Evaluate(gammas, betas []float64) (float64, *qsim.State, error) {
	if err := checkParams(a.layers, gammas, betas); err != nil {
		return 0, nil, err
	}
	return a.eng.Evaluate(gammas, betas), a.eng.State(), nil
}

// EvaluateBatch implements BatchEvaluator: the K parameter vectors run
// one after another on the ansatz's engine (evaluateEach), each sweep
// split over the kernel pool like any Evaluate. A batch therefore pins
// no statevector beyond the engine's, and it overwrites the state the
// last Evaluate returned.
func (a *fusedAnsatz) EvaluateBatch(gammas, betas [][]float64, energies []float64) error {
	return evaluateEach(a, gammas, betas, energies)
}

// Diagonal implements Ansatz. After the integral build the first call
// expands the level index into the full table — entry x is
// Values[Idx[x]], and on a Z2 engine the upper half is filled by
// complement, cut(x) = cut(~x) — so a caller that never asks (every
// exactly decoded leaf) never pays for 2^n float64s.
func (a *fusedAnsatz) Diagonal() []float64 {
	a.diagOnce.Do(func() {
		if a.diag != nil {
			return
		}
		if a.cost.Idx == nil {
			panic("backend: Diagonal of a released ansatz")
		}
		a.diag = make([]float64, 1<<uint(a.n))
		for x, j := range a.cost.Idx {
			a.diag[x] = a.cost.Values[j]
		}
		mask := len(a.diag) - 1
		for x := len(a.cost.Idx); x < len(a.diag); x++ {
			a.diag[x] = a.diag[mask^x]
		}
	})
	return a.diag
}

// TableMax implements TableMaxer without a scan: Values ascend, so the
// indexed form's maximum is its last value.
func (a *fusedAnsatz) TableMax() float64 {
	if v := a.cost.Values; v != nil {
		return v[len(v)-1]
	}
	return slices.Max(a.cost.Diag)
}

// Layout implements Ansatz: always identity.
func (a *fusedAnsatz) Layout() []int { return nil }

// Report implements Ansatz: no circuit is synthesized.
func (a *fusedAnsatz) Report() synth.Report { return synth.Report{} }
