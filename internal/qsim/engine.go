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
// internal/backend's fused path; the optimizer inner loop calls
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
//     last layer, accumulated per chunk while the tiles are still in
//     cache, so no separate ExpectDiagonal sweep runs either.
//
// A p-layer evaluation therefore touches the state p·⌈1 + (n−10)/6⌉
// times instead of the p·(1+n) + 2 sweeps of the unfused kernel walk.
//
// Allocation-freedom: the pass bodies are closures created once at
// construction and parameterized through Engine fields; the per-layer
// phase table, the expectation partials and the dispatch WaitGroup are
// hoisted into the Engine. An Engine is NOT safe for concurrent use —
// batch drivers create one Engine per worker (see SetSerial).
type Engine struct {
	state *State
	n     int

	diag   []float64    // expectation diagonal: ⟨D⟩ table (cut values)
	levels []float64    // distinct phase-diagonal values (indexed path)
	idx    []int32      // phase diagonal = levels[idx[i]] (indexed path)
	shift  []float64    // dense phase diagonal (fallback path)
	phases []complex128 // per-layer scratch: e^{-iγ·levels[j]}

	partials []float64      // per-chunk energy accumulators
	scratch  [][]complex128 // per-worker kernel scratch (workerScratch)
	wg       sync.WaitGroup

	// Current pass parameters, read by the prepared bodies.
	gamma  float64 // cost angle of the current layer
	c, sn  float64 // cos β, sin β of the current layer
	first  bool    // layer 0: synthesize phase·|+⟩ in place of loading
	expect bool    // accumulate ⟨D⟩ during this pass
	g0, m  int     // current high-group qubit range [g0, g0+m)

	m0       int  // low-group qubit count: min(n, lowBlockQubits)
	z2       bool // state is the Z2-reduced half-vector of n+1 qubits
	lowBody  func(w, start, end int)
	highBody func(w, start, end int)
}

// NewEngine builds an evaluator for an n-qubit cost diagonal. diag is
// the expectation table (len 2^n). The phase diagonal — the cost table
// shifted to reproduce the gate walk's global phase — is given either
// factored as (levels, idx) with phase[i] = levels[idx[i]] (the indexed
// fast path: one Sincos per distinct value) or dense as shift (one
// Sincos per amplitude); exactly one form must be non-nil.
func NewEngine(n int, diag []float64, levels []float64, idx []int32, shift []float64) (*Engine, error) {
	s, err := NewState(n)
	if err != nil {
		return nil, err
	}
	return newEngine(s, diag, levels, idx, shift)
}

// NewZ2Engine builds a symmetry-reduced evaluator for an nFull-qubit
// Z2-symmetric cost diagonal (diagonal(i) == diagonal(~i), which holds
// for every MaxCut cut table): the engine stores only the 2^(nFull−1)
// even-sector amplitudes (z2.go) and runs every fused sweep on the
// half-vector. All tables are the REDUCED prefixes — diag, idx and
// shift have 2^(nFull−1) entries, i.e. fullTable[:2^(nFull−1)], since
// representatives index the prefix directly.
//
// The mixer layer on the reduced state is the blocked butterfly on the
// nFull−1 effective qubits plus the boundary rotation of qubit nFull−1,
// which acts through the pairing i ↔ ~i; the engine fuses the boundary
// level into the mirrored low sweep (runMirrorChunk), so a layer still
// costs ⌈2 + (n−11)/6⌉ sweeps — on half the amplitudes.
func NewZ2Engine(nFull int, diag []float64, levels []float64, idx []int32, shift []float64) (*Engine, error) {
	s, err := NewZ2State(nFull)
	if err != nil {
		return nil, err
	}
	return newEngine(s, diag, levels, idx, shift)
}

// scratchLen is the per-worker scratch an engine over nEff index qubits
// with an m0-qubit low group needs: the high sweep's level buffer when
// there are high groups at all, and on Z2 engines the mirror sweep's
// tile pair.
func scratchLen(nEff, m0 int, z2 bool) int {
	n := 0
	if nEff > m0 {
		n = highBufLen
	}
	if z2 && 2<<uint(m0) > n {
		n = 2 << uint(m0)
	}
	return n
}

// workerScratch allocates one kernel scratch buffer per worker. The
// buffers live on the heap rather than the chunk bodies' stacks so the
// vector kernels see the allocator's alignment — whole cache lines, as
// for the statevector itself — where a stack array is only 8-byte
// aligned and every ZMM access to it would split a line.
func workerScratch(workers, n int) [][]complex128 {
	sc := make([][]complex128, workers)
	for i := range sc {
		sc[i] = make([]complex128, n)
	}
	return sc
}

// newEngine wires an evaluator over an allocated state buffer; table
// lengths must match the state (for a Z2-reduced state, the halved
// index space, and the engine runs the mirrored low sweep).
func newEngine(s *State, diag []float64, levels []float64, idx []int32, shift []float64) (*Engine, error) {
	n := s.N()
	if len(diag) != s.Len() {
		return nil, fmt.Errorf("qsim: engine diagonal has %d entries, want %d", len(diag), s.Len())
	}
	indexed := levels != nil || idx != nil
	if indexed && (levels == nil || idx == nil) {
		return nil, fmt.Errorf("qsim: engine phase levels and index must be given together")
	}
	if indexed == (shift != nil) {
		return nil, fmt.Errorf("qsim: engine needs exactly one of (levels, idx) or shift")
	}
	if indexed && len(idx) != s.Len() {
		return nil, fmt.Errorf("qsim: engine phase index has %d entries, want %d", len(idx), s.Len())
	}
	if shift != nil && len(shift) != s.Len() {
		return nil, fmt.Errorf("qsim: engine phase diagonal has %d entries, want %d", len(shift), s.Len())
	}
	e := &Engine{
		state:  s,
		n:      n,
		diag:   diag,
		levels: levels,
		idx:    idx,
		shift:  shift,
		phases: make([]complex128, len(levels)),
		m0:     n,
		z2:     s.z2Full != 0,
	}
	if e.m0 > lowBlockQubits {
		e.m0 = lowBlockQubits
	}
	e.lowBody = e.runLowChunk
	if e.z2 {
		if e.m0 == lowBlockQubits {
			// The mirror sweep works on a 2-tile scratch buffer; halving the
			// tile keeps the pair at 16 KiB — the same L1 working set the
			// full engine's low sweep was sized for.
			e.m0 = lowBlockQubits - 1
		}
		e.lowBody = e.runMirrorChunk
	}
	workers := 1
	if p := s.kernelPool(); p != nil {
		workers = p.workers
	}
	e.partials = make([]float64, workers)
	e.scratch = workerScratch(workers, scratchLen(n, e.m0, e.z2))
	e.highBody = e.runHighChunk
	return e, nil
}

// State returns the engine's statevector buffer: after Evaluate it
// holds the final state, valid until the next Evaluate.
func (e *Engine) State() *State { return e.state }

// SetSerial forces single-goroutine kernel execution (see
// State.SetSerial); batch drivers set it on their per-worker engines.
func (e *Engine) SetSerial(serial bool) { e.state.SetSerial(serial) }

// Evaluate runs the full p-layer fused evaluation at (γ⃗, β⃗) — the
// ansatz Π_l RX(2β_l)^⊗n · e^{-iγ_l D'} |+⟩^⊗n — and returns the exact
// energy ⟨ψ|D|ψ⟩. len(gammas) must equal len(betas); p = 0 degenerates
// to ⟨+|D|+⟩.
func (e *Engine) Evaluate(gammas, betas []float64) float64 {
	if len(gammas) != len(betas) {
		panic(fmt.Sprintf("qsim: engine got %d gammas but %d betas", len(gammas), len(betas)))
	}
	p := len(gammas)
	if p == 0 {
		e.state.FillPlus()
		return e.state.ExpectDiagonal(e.diag)
	}
	groups := 1 + (e.n-e.m0+mixerBlockQubits-1)/mixerBlockQubits
	tiles := len(e.state.amps) >> uint(e.m0)
	lowTotal, lowLen := tiles, 1<<uint(e.m0)
	if e.z2 {
		// The mirrored low sweep consumes tile PAIRS (t, tiles−1−t) so it
		// can fuse the boundary rotation into the tile butterfly.
		lowTotal = tiles / 2
		if lowTotal == 0 {
			lowTotal = 1
		}
		lowLen *= 2
	}
	for l := 0; l < p; l++ {
		e.gamma = gammas[l]
		e.c = math.Cos(betas[l]) // RX(2β): θ/2 = β
		e.sn = math.Sin(betas[l])
		e.first = l == 0
		last := l == p-1
		if e.levels != nil {
			amp := 1.0
			if e.first {
				amp = 1 / math.Sqrt(float64(len(e.state.amps)))
			}
			for j, v := range e.levels {
				sin, cos := math.Sincos(-e.gamma * v)
				e.phases[j] = complex(amp*cos, amp*sin)
			}
		}
		e.expect = last && groups == 1
		if e.expect {
			e.resetPartials()
		}
		e.dispatch(lowTotal, lowLen, e.lowBody)
		for g0 := e.m0; g0 < e.n; g0 += mixerBlockQubits {
			e.g0 = g0
			e.m = e.n - g0
			if e.m > mixerBlockQubits {
				e.m = mixerBlockQubits
			}
			e.expect = last && g0+mixerBlockQubits >= e.n
			if e.expect {
				e.resetPartials()
			}
			batches := len(e.state.amps) >> uint(e.m) / highBatch
			e.dispatch(batches, 1<<uint(e.m)*highBatch, e.highBody)
		}
	}
	total := 0.0
	for _, v := range e.partials {
		total += v
	}
	return total
}

func (e *Engine) resetPartials() {
	for i := range e.partials {
		e.partials[i] = 0
	}
}

// dispatch runs a prepared pass body over [0, total) chunks through the
// kernel pool, inline when the sweep is small or the state is serial.
func (e *Engine) dispatch(total, itemLen int, body func(w, start, end int)) {
	p := e.state.kernelPool()
	if p == nil || total*itemLen < parallelThreshold {
		body(0, 0, total)
		return
	}
	if p.workers > len(e.partials) {
		// The pool grew after construction (pool override on the state);
		// re-size outside the steady-state path.
		e.partials = make([]float64, p.workers)
		e.scratch = workerScratch(p.workers, scratchLen(e.n, e.m0, e.z2))
	}
	p.run(total, body, &e.wg)
}

// runLowChunk is the fused low sweep: per contiguous tile, apply the
// cost phases (synthesizing the first layer's phase·|+⟩ directly), run
// the low butterfly levels, and — when this is the evaluation's final
// sweep — accumulate the energy while the tile is cache-resident.
func (e *Engine) runLowChunk(w, start, end int) {
	amps := e.state.amps
	tl := 1 << uint(e.m0)
	c, sn := e.c, e.sn
	acc := 0.0
	for t := start; t < end; t++ {
		base := t * tl
		buf := amps[base : base+tl]
		e.phaseTile(buf, base)
		rxTile(buf, 1, c, sn)
		if e.expect {
			d := e.diag[base : base+tl]
			for i := range buf {
				a := buf[i]
				re, im := real(a), imag(a)
				acc += (re*re + im*im) * d[i]
			}
		}
	}
	if e.expect {
		e.partials[w] += acc
	}
}

// phaseTile applies the current layer's cost phases to one
// cache-resident tile — synthesizing phase·|+⟩ in place on the first
// layer — with base the tile's offset into the diagonal tables. On a
// Z2 engine len(e.state.amps) is the half-vector length, which makes
// the first-layer amplitude 1/√(2^(nFull−1)) = √2·2^(-nFull/2): the
// reduction's renormalization falls out automatically.
func (e *Engine) phaseTile(buf []complex128, base int) {
	if e.levels != nil {
		idx := e.idx[base : base+len(buf)]
		ph := e.phases
		if e.first {
			for i := range buf {
				buf[i] = ph[idx[i]]
			}
		} else {
			for i := range buf {
				buf[i] *= ph[idx[i]]
			}
		}
		return
	}
	sh := e.shift[base : base+len(buf)]
	gamma := e.gamma
	if e.first {
		amp0 := 1 / math.Sqrt(float64(len(e.state.amps)))
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

// phaseTileInto is phaseTile fused with the mirror sweep's scratch
// load: it reads src (one tile of the half-vector), applies the layer's
// phases, and writes the result to dst — in index order when reversed
// is false, back-to-front (dst[i] ← src[len−1−i]) when true. base is
// the tile's offset into the diagonal tables; the tables are addressed
// in SRC order, so the reversed copy phases each amplitude with its own
// diagonal entry. On the first layer src is not read at all — the
// phased |+⟩ synthesis writes straight into scratch.
func (e *Engine) phaseTileInto(dst, src []complex128, base int, reversed bool) {
	last := len(dst) - 1
	if e.levels != nil {
		idx := e.idx[base : base+len(dst)]
		ph := e.phases
		switch {
		case e.first && reversed:
			for i := range dst {
				dst[i] = ph[idx[last-i]]
			}
		case e.first:
			for i := range dst {
				dst[i] = ph[idx[i]]
			}
		case reversed:
			for i := range dst {
				j := last - i
				dst[i] = src[j] * ph[idx[j]]
			}
		default:
			for i := range dst {
				dst[i] = src[i] * ph[idx[i]]
			}
		}
		return
	}
	sh := e.shift[base : base+len(dst)]
	gamma := e.gamma
	if e.first {
		amp0 := 1 / math.Sqrt(float64(len(e.state.amps)))
		for i := range dst {
			j := i
			if reversed {
				j = last - i
			}
			sin, cos := math.Sincos(-gamma * sh[j])
			dst[i] = complex(amp0*cos, amp0*sin)
		}
		return
	}
	for i := range dst {
		j := i
		if reversed {
			j = last - i
		}
		sin, cos := math.Sincos(-gamma * sh[j])
		dst[i] = src[j] * complex(cos, sin)
	}
}

// runMirrorChunk is the Z2 engine's fused low sweep. The boundary
// rotation — RX on full qubit nFull−1, which pairs reduced index i with
// its complement maskLow^i — is an index REVERSAL, not a strided
// butterfly, so it cannot ride the blocked kernels directly. Instead
// the sweep processes mirror tile pairs: tile t is copied forward and
// tile tiles−1−t REVERSED into one 2·tileLen scratch buffer, where
//
//   - butterfly levels h ≤ tileLen/2 act inside each half, applying the
//     low-qubit rotations to both tiles (the reversed copy swaps each
//     pair's 0/1 roles, which the symmetric RX matrix can't tell), and
//   - level h = tileLen pairs forward[b] with reversed[tileLen−1−b] —
//     exactly the boundary pairing i ↔ maskLow^i.
//
// One rxTile call on the scratch therefore applies ALL low levels plus
// the boundary to both tiles, inheriting the AVX2 kernel and its
// portable fallback, and the phase/energy folds run on the same
// cache-resident data. Chunk index t ranges over pairs, [0, tiles/2).
func (e *Engine) runMirrorChunk(w, start, end int) {
	amps := e.state.amps
	tl := 1 << uint(e.m0)
	c, sn := e.c, e.sn
	acc := 0.0
	tiles := len(amps) >> uint(e.m0)
	if tiles == 1 {
		// Single-tile half-vector (nFull ≤ lowBlockQubits+1): all low
		// levels in place, then the boundary reversal as a scalar pass.
		e.phaseTile(amps, 0)
		rxTile(amps, 1, c, sn)
		z2Boundary(amps, c, sn)
		if e.expect {
			for i := range amps {
				a := amps[i]
				re, im := real(a), imag(a)
				acc += (re*re + im*im) * e.diag[i]
			}
			e.partials[w] += acc
		}
		return
	}
	sc := e.scratch[w][:2*tl]
	for t := start; t < end; t++ {
		fb := t * tl
		rb := (tiles - 1 - t) * tl
		fwd := amps[fb : fb+tl]
		rev := amps[rb : rb+tl]
		e.phaseTileInto(sc[:tl], fwd, fb, false)
		e.phaseTileInto(sc[tl:2*tl], rev, rb, true)
		rxTile(sc, 1, c, sn)
		copy(fwd, sc[:tl])
		for i := 0; i < tl; i++ {
			rev[tl-1-i] = sc[tl+i]
		}
		if e.expect {
			df := e.diag[fb : fb+tl]
			dr := e.diag[rb : rb+tl]
			for i := range fwd {
				a := fwd[i]
				re, im := real(a), imag(a)
				acc += (re*re + im*im) * df[i]
			}
			for i := range rev {
				a := rev[i]
				re, im := real(a), imag(a)
				acc += (re*re + im*im) * dr[i]
			}
		}
	}
	if e.expect {
		e.partials[w] += acc
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
// batches, folding the energy in on the evaluation's final sweep.
func (e *Engine) runHighChunk(w, start, end int) {
	if e.expect {
		e.partials[w] += rxHighSweep(e.state.amps, e.scratch[w], e.diag, e.g0, e.m, start, end, e.c, e.sn)
		return
	}
	rxHighSweep(e.state.amps, e.scratch[w], nil, e.g0, e.m, start, end, e.c, e.sn)
}
