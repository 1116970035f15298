package qsim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"qaoa2/internal/hpc/comm"
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
//     last layer, accumulated per chunk while the tiles are still in
//     cache, so no separate ExpectDiagonal sweep runs either. On the
//     indexed form the fold reads D through the phase index it already
//     streams (CostTables), not a 2^n float64 table.
//
// A p-layer evaluation therefore touches the state p·⌈1 + (n−10)/6⌉
// times instead of the p·(1+n) + 2 sweeps of the unfused kernel walk.
//
// Decomposition: the schedule and its chunk bodies live in ONE sweep
// core (sweep) that owns a window [base, base+len) of the global index
// space. An inline engine (ranks = 1) is one core over the whole vector,
// run on the caller's goroutine. A sharded engine splits the vector
// into ranks = 2^pg contiguous slices — the cache-blocking
// decomposition of the paper's aer backend (Doi & Horii) behind its §4
// scaling result — and runs the same core once per slice
// (dist_engine.go): the low sweep, the local high groups and the
// diagonal cost phases touch only the slice (every core knows its
// global offset into the shared tables), and only the top pg "global"
// qubits' rotations cross slices, as pairwise exchanges over a
// comm.World.
//
// Allocation-freedom: the pass bodies are method values bound once at
// construction and parameterized through core fields; the per-layer
// phase table, the expectation partials and the dispatch WaitGroup are
// hoisted into the core. An Engine is NOT safe for concurrent use —
// batch drivers create one Engine per worker (see SetSerial).
type Engine struct {
	state *State   // the whole vector; cores[r] sweeps slice r of it
	cores []*sweep // one per rank; cores[0] runs on the caller's goroutine

	// Rank wiring, nil on an inline engine (dist_engine.go).
	world    *comm.World
	start    []chan evalReq // start[r-1] wakes rank r
	results  chan rankResult
	partials []float64 // per-rank energies, summed in rank order
	stats    DistStats
	stopOnce sync.Once
}

// sweep is the one fused sweep core: the layer schedule and its chunk
// bodies over the window amps = global[base : base+len(amps)], reading
// the GLOBAL tables through base. On an inline engine the window is the
// whole vector; on a sharded engine each rank's core owns one slice and
// reaches its partner's through recv.
type sweep struct {
	state *State       // the whole vector (resolves the kernel pool)
	amps  []complex128 // this core's window
	base  int          // global index of amps[0]
	nLoc  int          // window qubits: len(amps) == 2^nLoc
	m0    int          // low-group qubit count
	z2    bool         // the vector is the Z2-reduced half-vector
	norm  float64      // first-layer amplitude 1/√(global length)

	cost CostTables // the GLOBAL phase and expectation tables

	phases   []complex128   // per-layer scratch: e^{-iγ·levels[j]}
	partials []float64      // per-worker energy accumulators
	scratch  [][]complex128 // per-worker kernel scratch (workerScratch)
	wg       sync.WaitGroup

	// Current pass parameters, read by the prepared bodies.
	gamma  float64 // cost angle of the current layer
	c, sn  float64 // cos β, sin β of the current layer
	first  bool    // layer 0: synthesize phase·|+⟩ in place of loading
	expect bool    // accumulate ⟨D⟩ during this pass
	g0, m  int     // current high-group qubit range [g0, g0+m)
	bit0   bool    // this rank holds the 0-side of the global butterfly

	// Rank wiring; on an inline core rank = pg = 0, ranks = 1.
	comm            *comm.Comm
	recv            []complex128 // partner slice of the current exchange
	rank, ranks, pg int

	// Ledger: fused sweeps run on the window and exchange rounds.
	localSweeps, commSweeps int

	lowBody, highBody, globalBody func(w, start, end int)
}

// NewEngine builds an evaluator for an nFull-qubit cost diagonal over
// ranks slices (a power of two; 1 builds the inline engine). cost holds
// the expectation diagonal and the phase diagonal — the cost table
// shifted to reproduce the gate walk's global phase — in one of its two
// forms: indexed (Levels, Values, Idx: one Sincos per distinct value)
// or dense (Diag, Shift: one Sincos per amplitude).
//
// z2 builds the symmetry-reduced evaluator for a Z2-symmetric diagonal
// (diagonal(i) == diagonal(~i), which holds for every MaxCut cut
// table): the engine stores only the 2^(nFull−1) even-sector amplitudes
// (z2.go) and every per-entry table is the REDUCED prefix
// fullTable[:2^(nFull−1)], since representatives index the prefix
// directly. The boundary rotation of qubit nFull−1 pairs index i with
// its complement — tile t with the mirror tile T−1−t — and is fused
// into the mirrored low sweep (runMirrorChunk); across ranks the mirror
// tile arrives by one exchange between ranks r ↔ ranks−1−r per layer
// after the first.
//
// Every rank keeps at least one local qubit: ranks ≤ 2^(n−1) for the
// n = nFull (or nFull−1 reduced) index qubits.
func NewEngine(nFull int, z2 bool, ranks int, cost CostTables) (*Engine, error) {
	e, err := buildEngine(nFull, z2, ranks, cost)
	if err != nil {
		return nil, err
	}
	e.launch()
	return e, nil
}

// buildEngine validates the configuration and wires the engine and its
// cores; no rank goroutine runs until launch.
func buildEngine(nFull int, z2 bool, ranks int, cost CostTables) (*Engine, error) {
	var s *State
	var err error
	if z2 {
		s, err = NewZ2State(nFull)
	} else {
		s, err = NewState(nFull)
	}
	if err != nil {
		return nil, err
	}
	pg := bits.Len(uint(ranks)) - 1
	if ranks < 1 || 1<<uint(pg) != ranks {
		return nil, fmt.Errorf("qsim: engine rank count %d is not a power of two", ranks)
	}
	if pg > s.n-1 {
		return nil, fmt.Errorf("qsim: %d ranks leave no local qubits on a %d-qubit index space (need ranks ≤ %d)",
			ranks, s.n, 1<<uint(s.n-1))
	}
	size := s.Len()
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

	e := &Engine{state: s, cores: make([]*sweep, ranks)}
	if ranks > 1 {
		if e.world, err = comm.NewWorld(ranks); err != nil {
			return nil, err
		}
		e.partials = make([]float64, ranks)
	}
	workers := 1
	if p := s.kernelPool(); p != nil {
		workers = p.workers
	}
	sliceLen := size / ranks
	for r := range e.cores {
		c := &sweep{
			state:  s,
			amps:   s.amps[r*sliceLen : (r+1)*sliceLen],
			base:   r * sliceLen,
			nLoc:   s.n - pg,
			m0:     min(s.n-pg, lowBlockQubits),
			z2:     z2,
			norm:   1 / math.Sqrt(float64(size)),
			cost:   cost,
			phases: make([]complex128, len(cost.Levels)),
			rank:   r,
			ranks:  ranks,
			pg:     pg,
		}
		c.lowBody = c.runLowChunk
		if z2 {
			if c.m0 == lowBlockQubits {
				// The mirror sweep works on a 2-tile scratch buffer; halving
				// the tile keeps the pair at 16 KiB — the same L1 working set
				// the full engine's low sweep was sized for.
				c.m0 = lowBlockQubits - 1
			}
			c.lowBody = c.runMirrorChunk
		}
		c.highBody = c.runHighChunk
		c.partials = make([]float64, workers)
		c.scratch = workerScratch(workers, scratchLen(c.nLoc, c.m0, z2))
		if ranks > 1 {
			c.comm, _ = e.world.Rank(r)
			c.recv = make([]complex128, sliceLen)
			c.globalBody = c.runGlobalChunk
		}
		e.cores[r] = c
	}
	return e, nil
}

// scratchLen is the per-worker scratch a core over nLoc window qubits
// with an m0-qubit low group needs: the high sweep's level buffer when
// there are high groups at all, and on Z2 engines the mirror sweep's
// tile pair.
func scratchLen(nLoc, m0 int, z2 bool) int {
	n := 0
	if nLoc > m0 {
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

// State returns the engine's statevector buffer: after Evaluate it
// holds the final state, valid until the next Evaluate. On a sharded
// engine the rank slices alias this one backing array, so the
// "gather" is free at every rank count. On a Z2 engine it is a reduced
// state whose measurement accessors report full-space results.
func (e *Engine) State() *State { return e.state }

// SetSerial forces single-goroutine kernel execution (see
// State.SetSerial); batch drivers set it on their per-worker engines.
func (e *Engine) SetSerial(serial bool) { e.state.SetSerial(serial) }

// Evaluate runs the full p-layer fused evaluation at (γ⃗, β⃗) — the
// ansatz Π_l RX(2β_l)^⊗n · e^{-iγ_l D'} |+⟩^⊗n — and returns the exact
// energy ⟨ψ|D|ψ⟩. len(gammas) must equal len(betas); p = 0 degenerates
// to ⟨+|D|+⟩. Partials are summed in rank order (and per-worker order
// inside each rank), so repeated evaluations are bit-identical.
func (e *Engine) Evaluate(gammas, betas []float64) float64 {
	if len(gammas) != len(betas) {
		panic(fmt.Sprintf("qsim: engine got %d gammas but %d betas", len(gammas), len(betas)))
	}
	if e.world == nil {
		return e.cores[0].evaluate(gammas, betas)
	}
	return e.evaluateRanks(gammas, betas)
}

// evaluate is one core's full evaluation: the fused layer schedule on
// its window, with global-qubit rotations (and, on Z2 slices, the
// mirror tiles) routed through barrier-separated slice exchanges.
func (s *sweep) evaluate(gammas, betas []float64) float64 {
	p := len(gammas)
	if p == 0 {
		// Degenerate ⟨+|D|+⟩: fill the window and dot it locally.
		s.localSweeps++
		amp := complex(s.norm, 0)
		for i := range s.amps {
			s.amps[i] = amp
		}
		return s.cost.fold(0, s.amps, s.base)
	}
	groups := 1 + (s.nLoc-s.m0+mixerBlockQubits-1)/mixerBlockQubits
	tiles := len(s.amps) >> uint(s.m0)
	lowTotal, lowLen := tiles, 1<<uint(s.m0)
	if s.z2 {
		// The mirrored low sweep butterflies tile PAIRS. On one slice an
		// item is a pair of local tiles; across ranks an item is one local
		// tile whose partner arrives in recv.
		lowLen *= 2
		if s.pg == 0 {
			lowTotal = max(tiles/2, 1)
		}
	}
	for l := 0; l < p; l++ {
		s.gamma = gammas[l]
		s.c = math.Cos(betas[l]) // RX(2β): θ/2 = β
		s.sn = math.Sin(betas[l])
		s.first = l == 0
		last := l == p-1
		if s.cost.Levels != nil {
			amp := 1.0
			if s.first {
				amp = s.norm
			}
			for j, v := range s.cost.Levels {
				sin, cos := math.Sincos(-s.gamma * v)
				s.phases[j] = complex(amp*cos, amp*sin)
			}
		}
		if s.z2 && s.pg > 0 && !s.first {
			// Mirror exchange for the fused boundary rotation. The first
			// layer synthesizes phase·|+⟩ straight from the tables and
			// reads no amplitudes, so it needs no partner data.
			s.exchange(s.ranks - 1 - s.rank)
		}
		s.expect = last && groups == 1 && s.pg == 0
		if s.expect {
			s.resetPartials()
		}
		s.dispatch(lowTotal, lowLen, s.lowBody)
		for g0 := s.m0; g0 < s.nLoc; g0 += mixerBlockQubits {
			s.g0 = g0
			s.m = min(s.nLoc-g0, mixerBlockQubits)
			s.expect = last && s.pg == 0 && g0+mixerBlockQubits >= s.nLoc
			if s.expect {
				s.resetPartials()
			}
			batches := len(s.amps) >> uint(s.m) / highBatch
			s.dispatch(batches, 1<<uint(s.m)*highBatch, s.highBody)
		}
		s.localSweeps += groups
		for gq := 0; gq < s.pg; gq++ {
			s.exchange(s.rank ^ 1<<uint(gq))
			s.bit0 = s.rank&(1<<uint(gq)) == 0
			s.expect = last && gq == s.pg-1
			if s.expect {
				s.resetPartials()
			}
			s.dispatch(len(s.amps), 1, s.globalBody)
		}
	}
	total := 0.0
	for _, v := range s.partials {
		total += v
	}
	return total
}

func (s *sweep) resetPartials() {
	for i := range s.partials {
		s.partials[i] = 0
	}
}

// dispatch runs a prepared pass body over [0, total) chunks through the
// kernel pool, inline when the sweep is small or the state is serial.
// Concurrent ranks interleave their chunks on the same workers; each
// core waits only on its own WaitGroup.
func (s *sweep) dispatch(total, itemLen int, body func(w, start, end int)) {
	p := s.state.kernelPool()
	if p == nil || total*itemLen < parallelThreshold {
		body(0, 0, total)
		return
	}
	if p.workers > len(s.partials) {
		// The pool grew after construction (pool override on the state);
		// re-size outside the steady-state path.
		s.partials = make([]float64, p.workers)
		s.scratch = workerScratch(p.workers, scratchLen(s.nLoc, s.m0, s.z2))
	}
	p.run(total, body, &s.wg)
}

// runLowChunk is the fused low sweep: per contiguous tile, apply the
// cost phases (synthesizing the first layer's phase·|+⟩ directly), run
// the low butterfly levels, and — when this is the evaluation's final
// sweep — accumulate the energy while the tile is cache-resident.
func (s *sweep) runLowChunk(w, start, end int) {
	tl := 1 << uint(s.m0)
	c, sn := s.c, s.sn
	acc := 0.0
	for t := start; t < end; t++ {
		lb := t * tl
		gb := s.base + lb
		buf := s.amps[lb : lb+tl]
		s.phaseTile(buf, gb)
		rxTile(buf, 1, c, sn)
		if s.expect {
			acc = s.cost.fold(acc, buf, gb)
		}
	}
	if s.expect {
		s.partials[w] += acc
	}
}

// phaseTile applies the current layer's cost phases to one
// cache-resident tile — synthesizing phase·|+⟩ in place on the first
// layer — with base the tile's GLOBAL offset into the diagonal tables.
// On a Z2 engine the global length is the half-vector's, which makes
// the first-layer amplitude 1/√(2^(nFull−1)) = √2·2^(-nFull/2): the
// reduction's renormalization falls out automatically.
func (s *sweep) phaseTile(buf []complex128, base int) {
	if s.cost.Idx != nil {
		idx := s.cost.Idx[base : base+len(buf)]
		ph := s.phases
		if s.first {
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
	sh := s.cost.Shift[base : base+len(buf)]
	gamma := s.gamma
	if s.first {
		amp0 := s.norm
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
// load: it reads src (one tile, from the window or the partner's
// received slice), applies the layer's phases, and writes the result to
// dst — in index order when reversed is false, back-to-front
// (dst[i] ← src[len−1−i]) when true. base is the tile's GLOBAL offset
// into the diagonal tables; the tables are addressed in SRC order, so
// the reversed copy phases each amplitude with its own diagonal entry.
// On the first layer src is not read at all — the phased |+⟩ synthesis
// writes straight into scratch.
func (s *sweep) phaseTileInto(dst, src []complex128, base int, reversed bool) {
	last := len(dst) - 1
	if s.cost.Idx != nil {
		idx := s.cost.Idx[base : base+len(dst)]
		ph := s.phases
		switch {
		case s.first && reversed:
			for i := range dst {
				dst[i] = ph[idx[last-i]]
			}
		case s.first:
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
	sh := s.cost.Shift[base : base+len(dst)]
	gamma := s.gamma
	if s.first {
		amp0 := s.norm
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
// the sweep processes mirror tile pairs: global tile f is copied
// forward and tile T−1−f REVERSED into one 2·tileLen scratch buffer,
// where
//
//   - butterfly levels h ≤ tileLen/2 act inside each half, applying the
//     low-qubit rotations to both tiles (the reversed copy swaps each
//     pair's 0/1 roles, which the symmetric RX matrix can't tell), and
//   - level h = tileLen pairs forward[b] with reversed[tileLen−1−b] —
//     exactly the boundary pairing i ↔ maskLow^i.
//
// One rxTile call on the scratch therefore applies ALL low levels plus
// the boundary to both tiles, inheriting the vector kernels and their
// portable fallback, and the phase/energy folds run on the same
// cache-resident data.
//
// On one slice both tiles are local and chunk item t is the pair
// (t, T−1−t), t < T/2; the sweep writes both halves back. Across ranks
// item t is local tile t, its mirror lives on rank ranks−1−r and came
// in through this layer's mirror exchange; both sides of a pair
// assemble the identical scratch and each writes back only its own
// half — the butterfly work is done twice across the pair, which is
// cheaper than a second exchange to return the partner half (the
// standard redundant-compute tradeoff of distributed mirrored sweeps).
func (s *sweep) runMirrorChunk(w, start, end int) {
	tl := 1 << uint(s.m0)
	c, sn := s.c, s.sn
	tiles := len(s.amps) << uint(s.pg) >> uint(s.m0) // global tile count T
	if tiles == 1 {
		// Single-tile half-vector (nFull ≤ lowBlockQubits+1): all low
		// levels in place, then the boundary reversal as a scalar pass.
		s.phaseTile(s.amps, 0)
		rxTile(s.amps, 1, c, sn)
		z2Boundary(s.amps, c, sn)
		if s.expect {
			s.partials[w] += s.cost.fold(0, s.amps, 0)
		}
		return
	}
	acc := 0.0
	sc := s.scratch[w][:2*tl]
	for t := start; t < end; t++ {
		f := s.base/tl + t // the item's forward tile (or, upper ranks, its mirror)
		if f >= tiles/2 {
			f = tiles - 1 - f
		}
		fb, rb := f*tl, (tiles-1-f)*tl
		fwd, fOwn := s.tile(fb, tl)
		rev, rOwn := s.tile(rb, tl)
		s.phaseTileInto(sc[:tl], fwd, fb, false)
		s.phaseTileInto(sc[tl:], rev, rb, true)
		rxTile(sc, 1, c, sn)
		if fOwn {
			copy(fwd, sc[:tl])
			if s.expect {
				acc = s.cost.fold(acc, fwd, fb)
			}
		}
		if rOwn {
			for i := range rev {
				rev[tl-1-i] = sc[tl+i]
			}
			if s.expect {
				acc = s.cost.fold(acc, rev, rb)
			}
		}
	}
	if s.expect {
		s.partials[w] += acc
	}
}

// tile returns the tl amplitudes at global offset gb: from this core's
// window when it owns them, else from the mirror rank's slice in recv.
func (s *sweep) tile(gb, tl int) (buf []complex128, own bool) {
	if lb := gb - s.base; lb >= 0 && lb < len(s.amps) {
		return s.amps[lb : lb+tl], true
	}
	lb := gb - (s.ranks-1-s.rank)*len(s.amps)
	return s.recv[lb : lb+tl], false
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
// batches, folding the energy in on the evaluation's final sweep
// through the window's share of the global tables.
func (s *sweep) runHighChunk(w, start, end int) {
	if s.expect {
		s.partials[w] += rxHighSweep(s.amps, s.scratch[w], &s.cost, s.base, s.g0, s.m, start, end, s.c, s.sn)
		return
	}
	rxHighSweep(s.amps, s.scratch[w], nil, 0, s.g0, s.m, start, end, s.c, s.sn)
}
