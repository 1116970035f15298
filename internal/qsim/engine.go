package qsim

import (
	"fmt"
	"math"
	"sync"
)

// Engine is the fused-layer QAOA evaluator: a persistent execution
// object prepared once per (qubit count, cost diagonal) that runs whole
// p-layer objective evaluations with the minimum number of statevector
// sweeps and ZERO steady-state allocations. It is the engine behind
// internal/backend's fused paths; the optimizer inner loop calls
// Evaluate thousands of times per sub-graph.
//
// Fusion layout per layer (blocked mixer geometry of mixer.go):
//
//   - The cost-phase pass e^{-iγD} is folded into the LOW mixer sweep's
//     tile load: each cache-resident tile is phased and butterflied in
//     one touch. On the first layer the |+⟩^⊗n preparation folds in
//     too — amplitudes are synthesized in place (phase · 2^{-n/2}), so
//     the evaluation never does a separate FillPlus sweep.
//
//   - The energy ⟨ψ|D|ψ⟩ is folded into the LAST mixer sweep of the
//     last layer while its rows are still in cache, so no separate
//     ExpectDiagonal sweep runs either. On the indexed form the fold
//     reads D through the phase index it already streams (CostTables),
//     not a 2^n float64 table.
//
// Reduction shape: the folding sweep is the last high group's, and
// each of its batches writes its own partial sum (partials, one per
// batch); Evaluate adds them in batch order. The energy is therefore a
// function of the vector's shape, tables, angles and kernel tier alone
// — never of the worker count or of which chunk finished first. A
// vector without high groups is one low tile; its energy is one
// in-order fold of the tile, still L1-resident after its low sweep.
//
// A p-layer evaluation therefore touches the state p·⌈1 + (n−10)/6⌉
// times instead of the p·(1+n) + 2 sweeps of the unfused kernel walk.
//
// Parallelism: every sweep splits its tiles over the slice-affine
// kernel pool (pool.go, through State.sweep), so one vector and one
// schedule serve every core count; a serial engine (SetSerial) runs
// each sweep inline. The only per-worker state is the high sweep's
// scratch.
//
// Allocation-freedom: the pass bodies are method values bound once at
// construction and parameterized through engine fields; the per-layer
// phase table and the per-batch partials are sized once per engine
// shape and kept by pooled engines. An Engine is NOT safe for
// concurrent use — batch drivers create one Engine per worker (see
// SetSerial).
type Engine struct {
	state *State       // the statevector (resolves the kernel pool)
	amps  []complex128 // state's amplitudes
	n     int          // index qubits: len(amps) == 2^n
	m0    int          // low-group qubit count
	z2    bool         // the vector is the Z2-reduced half-vector
	norm  float64      // first-layer amplitude 1/√len(amps)

	cost CostTables // the phase and expectation tables

	phases   []complex128   // per-layer scratch: e^{-iγ·levels[j]}
	partials []float64      // energy of each batch of the folding sweep
	scratch  [][]complex128 // per-worker high-sweep scratch (fitScratch)

	// Current pass parameters, read by the prepared bodies.
	gamma  float64 // cost angle of the current layer
	c, sn  float64 // cos β, sin β of the current layer
	first  bool    // layer 0: synthesize phase·|+⟩ in place of loading
	expect bool    // this high sweep folds ⟨D⟩ into partials
	g0, m  int     // current high-group qubit range [g0, g0+m)

	lowBody, highBody func(w, start, end int)
}

// NewEngine builds an evaluator for an nFull-qubit cost diagonal. cost
// holds the expectation diagonal and the phase diagonal — the cost
// table shifted to reproduce the gate walk's global phase — in one of
// its two forms: indexed (Levels, Values, Idx: one Sincos per distinct
// value; every Idx entry must name one of the levels) or dense (Diag,
// Shift: one Sincos per amplitude).
//
// z2 builds the symmetry-reduced evaluator for a Z2-symmetric diagonal
// (diagonal(i) == diagonal(~i), which holds for every MaxCut cut
// table): the engine stores only the 2^(nFull−1) even-sector amplitudes
// (z2.go) and every per-entry table is the REDUCED prefix
// fullTable[:2^(nFull−1)], since representatives index the prefix
// directly. The boundary rotation of qubit nFull−1 pairs index i with
// its complement — tile t with the mirror tile T−1−t — and is fused
// into the mirrored low sweep (runMirrorChunk).
//
// NewEngine takes a released engine of the same shape (index qubits,
// z2) when its pool holds one (see Release), and allocates one
// otherwise. Either way the engine gets a fresh State, in the default
// kernel mode; its amplitudes are unspecified until the first Evaluate.
func NewEngine(nFull int, z2 bool, cost CostTables) (*Engine, error) {
	n := nFull
	check := checkQubits
	if z2 {
		n--
		check = checkZ2Qubits
	}
	if err := check(nFull); err != nil {
		return nil, err
	}
	size := 1 << uint(n)
	indexed := cost.Levels != nil || cost.Values != nil || cost.Idx != nil
	dense := cost.Diag != nil || cost.Shift != nil
	switch {
	case indexed == dense:
		return nil, fmt.Errorf("qsim: engine needs exactly one of (Levels, Values, Idx) or (Diag, Shift)")
	case indexed && (cost.Idx == nil || len(cost.Levels) == 0 || len(cost.Values) != len(cost.Levels)):
		return nil, fmt.Errorf("qsim: engine has %d phase levels and %d values, want as many of each and an index",
			len(cost.Levels), len(cost.Values))
	case indexed && len(cost.Idx) != size:
		return nil, fmt.Errorf("qsim: engine phase index has %d entries, want %d", len(cost.Idx), size)
	case dense && (len(cost.Diag) != size || len(cost.Shift) != size):
		return nil, fmt.Errorf("qsim: engine diagonal has %d entries and phase diagonal %d, want %d",
			len(cost.Diag), len(cost.Shift), size)
	}
	// The assembly phase kernels read the level table through the index
	// without a bounds check (phaseIdx): one check here covers every
	// tile of every Evaluate. Only a failing index is scanned for its
	// first bad entry.
	if cost.Idx != nil && indexMax(cost.Idx) >= uint32(len(cost.Levels)) {
		for i, k := range cost.Idx {
			if uint32(k) >= uint32(len(cost.Levels)) {
				return nil, fmt.Errorf("qsim: engine phase index entry %d is level %d, want one of %d levels",
					i, k, len(cost.Levels))
			}
		}
	}

	e, _ := enginePool(n, z2).Get().(*Engine)
	if e == nil {
		e = &Engine{
			amps: make([]complex128, size),
			n:    n,
			m0:   min(n, lowBlockQubits),
			z2:   z2,
			norm: 1 / math.Sqrt(float64(size)),
		}
		e.lowBody = e.runLowChunk
		if z2 {
			if e.m0 == lowBlockQubits {
				// The mirror sweep works on a tile pair; halving the tile
				// keeps the pair at 16 KiB — the same L1 working set the
				// full engine's low sweep was sized for.
				e.m0 = lowBlockQubits - 1
			}
			e.lowBody = e.runMirrorChunk
		}
		e.highBody = e.runHighChunk
		if n > e.m0 {
			// One partial per batch of the last high group's sweep,
			// the one the energy folds into.
			last := (n-e.m0-1)%mixerBlockQubits + 1
			e.partials = make([]float64, size>>uint(last)/highBatch)
		}
	}
	e.state = &State{n: n, amps: e.amps}
	if z2 {
		e.state.z2Full = nFull
	}
	e.cost = cost
	if cap(e.phases) < len(cost.Levels) {
		e.phases = make([]complex128, len(cost.Levels))
	}
	e.phases = e.phases[:len(cost.Levels)]
	return e, nil
}

// indexMaxGo is the portable index check (indexMax): the largest entry
// of idx read as uint32, 0 when idx is empty.
func indexMaxGo(idx []int32) uint32 {
	var m uint32
	for _, k := range idx {
		m = max(m, uint32(k))
	}
	return m
}

// enginePools holds released engines, one free list per shape: z2 ×
// index qubits. A sync.Pool drops what it holds across two garbage
// collections, so an idle process keeps no statevector alive.
var enginePools [2][MaxQubits + 1]sync.Pool

// enginePool returns the free list of the engines over n index qubits.
func enginePool(n int, z2 bool) *sync.Pool {
	if z2 {
		return &enginePools[1][n]
	}
	return &enginePools[0][n]
}

// Release hands the engine back to the free list of its shape, for
// the next NewEngine of that shape. The State it returned loses its
// amplitudes (Len() == 0; any amplitude access panics), so a stale
// holder cannot read or write the next owner's vector. Releasing twice
// is a no-op, but the engine must not be used after Release.
func (e *Engine) Release() {
	if e.state == nil {
		return
	}
	e.state.amps = nil
	e.state, e.cost = nil, CostTables{}
	enginePool(e.n, e.z2).Put(e)
}

// fitScratch gives each worker of the state's kernel pool (one worker
// when the engine runs inline) a high-sweep scratch buffer, keeping the
// buffers it has. The buffers live on the heap rather than the chunk
// bodies' stacks so the vector kernels see the allocator's alignment —
// whole cache lines, as for the statevector itself — where a stack
// array is only 8-byte aligned and every ZMM access to it would split
// a line.
func (e *Engine) fitScratch() {
	workers := 1
	if p := e.state.kernelPool(); p != nil {
		workers = p.workers
	}
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, make([]complex128, highBufLen))
	}
}

// State returns the engine's statevector buffer: after Evaluate it
// holds the final state, valid until the next Evaluate or Release
// (after which it is empty). On a Z2 engine it is a reduced state whose
// measurement accessors report full-space results.
func (e *Engine) State() *State { return e.state }

// SetSerial forces single-goroutine kernel execution (see
// State.SetSerial); batch drivers set it on their per-worker engines.
func (e *Engine) SetSerial(serial bool) { e.state.SetSerial(serial) }

// Evaluate runs the full p-layer fused evaluation at (γ⃗, β⃗) — the
// ansatz Π_l RX(2β_l)^⊗n · e^{-iγ_l D'} |+⟩^⊗n — and returns the exact
// energy ⟨ψ|D|ψ⟩. len(gammas) must equal len(betas); p = 0 degenerates
// to ⟨+|D|+⟩. The energy's partials are one per batch of the folding
// sweep, summed in batch order, so its bits are the same on every
// worker count and on every repeat.
func (e *Engine) Evaluate(gammas, betas []float64) float64 {
	if len(gammas) != len(betas) {
		panic(fmt.Sprintf("qsim: engine got %d gammas but %d betas", len(gammas), len(betas)))
	}
	p := len(gammas)
	if p == 0 {
		// Degenerate ⟨+|D|+⟩: fill the vector and dot it.
		amp := complex(e.norm, 0)
		for i := range e.amps {
			e.amps[i] = amp
		}
		return e.cost.fold(0, e.amps, 0)
	}
	if e.n > e.m0 {
		e.fitScratch()
	}
	lowTotal, lowLen := len(e.amps)>>uint(e.m0), 1<<uint(e.m0)
	if e.z2 {
		// The mirrored low sweep butterflies tile PAIRS.
		lowTotal, lowLen = max(lowTotal/2, 1), 2*lowLen
	}
	for l := 0; l < p; l++ {
		e.gamma = gammas[l]
		e.c = math.Cos(betas[l]) // RX(2β): θ/2 = β
		e.sn = math.Sin(betas[l])
		e.first = l == 0
		if e.cost.Levels != nil {
			amp := 1.0
			if e.first {
				amp = e.norm
			}
			for j, v := range e.cost.Levels {
				sin, cos := math.Sincos(-e.gamma * v)
				e.phases[j] = complex(amp*cos, amp*sin)
			}
		}
		e.state.sweep(lowTotal, lowLen, e.lowBody)
		for g0 := e.m0; g0 < e.n; g0 += mixerBlockQubits {
			e.g0 = g0
			e.m = min(e.n-g0, mixerBlockQubits)
			e.expect = l == p-1 && g0+mixerBlockQubits >= e.n
			batches := len(e.amps) >> uint(e.m) / highBatch
			e.state.sweep(batches, 1<<uint(e.m)*highBatch, e.highBody)
		}
	}
	if e.n == e.m0 {
		return e.cost.fold(0, e.amps, 0)
	}
	total := 0.0
	for _, v := range e.partials {
		total += v
	}
	return total
}

// runLowChunk is the fused low sweep: per contiguous tile, apply the
// cost phases (synthesizing the first layer's phase·|+⟩ directly) and
// run the low butterfly levels.
func (e *Engine) runLowChunk(_, start, end int) {
	tl := 1 << uint(e.m0)
	c, sn := e.c, e.sn
	for t := start; t < end; t++ {
		b := t * tl
		buf := e.amps[b : b+tl]
		e.phaseTile(buf, b)
		rxTile(buf, 1, c, sn)
	}
}

// phaseTile applies the current layer's cost phases to one
// cache-resident tile — synthesizing phase·|+⟩ in place on the first
// layer — with base the tile's offset into the diagonal tables. On a
// Z2 engine the vector length is the half-vector's, which makes the
// first-layer amplitude 1/√(2^(nFull−1)) = √2·2^(-nFull/2): the
// reduction's renormalization falls out automatically.
func (e *Engine) phaseTile(buf []complex128, base int) {
	if e.cost.Idx != nil {
		phaseIdx(buf, e.phases, e.cost.Idx[base:], e.first)
		return
	}
	sh := e.cost.Shift[base : base+len(buf)]
	gamma := e.gamma
	if e.first {
		amp0 := e.norm
		for i := range buf {
			sin, cos := math.Sincos(-gamma * sh[i])
			buf[i] = complex(amp0*cos, amp0*sin)
		}
	} else {
		for i := range buf {
			sin, cos := math.Sincos(-gamma * sh[i])
			buf[i] *= complex(cos, sin)
		}
	}
}

// runMirrorChunk is the Z2 engine's fused low sweep. The boundary
// rotation — RX on full qubit nFull−1, which pairs reduced index i with
// its complement maskLow^i — is an index REVERSAL, not a strided
// butterfly, so it cannot ride the tile network directly. Instead the
// sweep processes mirror tile pairs: chunk item t is the pair
// (t, T−1−t), t < T/2, and both tiles stay where they live:
//
//   - each tile is phased in place (phaseTile), then rxTile runs the
//     low butterfly levels on each; the mirror tile's levels pair the
//     same amplitudes whether it is read forward or reversed, and the
//     symmetric RX update cannot tell a pair's 0/1 roles apart;
//   - rxMirror then runs the boundary level, pairing fwd[b] with
//     rev[tileLen−1−b] — exactly the boundary pairing i ↔ maskLow^i —
//     and storing both in place.
//
// Each amplitude sees the update sequence of the 2·tileLen network
// over [fwd, reversed rev], so the result is bit-identical to running
// it in a scratch copy (engine_mirror_test.go keeps that walk as the
// oracle).
func (e *Engine) runMirrorChunk(_, start, end int) {
	tl := 1 << uint(e.m0)
	c, sn := e.c, e.sn
	tiles := len(e.amps) >> uint(e.m0) // tile count T
	if tiles == 1 {
		// Single-tile half-vector (nFull ≤ lowBlockQubits): all low
		// levels in place, then the boundary reversal as a scalar pass.
		e.phaseTile(e.amps, 0)
		rxTile(e.amps, 1, c, sn)
		z2Boundary(e.amps, c, sn)
		return
	}
	for t := start; t < end; t++ {
		fb, rb := t*tl, (tiles-1-t)*tl
		fwd, rev := e.amps[fb:fb+tl], e.amps[rb:rb+tl]
		e.phaseTile(fwd, fb)
		e.phaseTile(rev, rb)
		rxTile(fwd, 1, c, sn)
		rxTile(rev, 1, c, sn)
		rxMirror(fwd, rev, c, sn)
	}
}

// z2Boundary applies the boundary rotation to a single-tile reduced
// vector: the pairing i ↔ maskLow^i is the index reversal i ↔ len−1−i,
// rotated with the exact arithmetic of the ApplyRX kernel (the RX
// matrix is symmetric, so either pair member may take the 0-side row).
func z2Boundary(buf []complex128, c, sn float64) {
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		a0, a1 := buf[i], buf[j]
		re0, im0 := real(a0), imag(a0)
		re1, im1 := real(a1), imag(a1)
		buf[i] = complex(c*re0+sn*im1, c*im0-sn*re1)
		buf[j] = complex(sn*im0+c*re1, c*im1-sn*re0)
	}
}

// runHighChunk runs the current high group's sweep (rxHighSweep, which
// butterflies the strided rows where they live) over one chunk of
// batches in worker w's scratch; on the evaluation's final sweep each
// batch writes its energy into its own partial.
func (e *Engine) runHighChunk(w, start, end int) {
	if e.expect {
		rxHighSweep(e.amps, e.scratch[w], &e.cost, e.partials, e.g0, e.m, start, end, e.c, e.sn)
		return
	}
	rxHighSweep(e.amps, e.scratch[w], nil, nil, e.g0, e.m, start, end, e.c, e.sn)
}
