package qsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"qaoa2/internal/hpc/comm"
)

// DistStats records the communication behaviour of a distributed
// simulation; the scaling experiment (paper §4: "33 qubits ... on 512
// compute nodes", "almost ideal scaling") reads these counters.
type DistStats struct {
	LocalGates   int    // gates applied without communication
	CommGates    int    // gates that required rank exchange
	MessagesSent int    // point-to-point messages (one per rank per exchange)
	BytesSent    uint64 // payload volume of those messages
}

// DistEngine is the sharded fused evaluator: the cache-blocked
// diagonal-phase + blocked-mixer sweeps of Engine, run on rank-local
// statevector slices over a comm.World — the cache-blocking
// decomposition of the paper's aer backend (Doi & Horii) behind its §4
// scaling result (33 qubits over 512 compute nodes), fused with the
// single-node engine's zero-allocation sweep machinery.
//
// Slice layout: the 2^nEff-amplitude vector (nEff = n, or nFull−1 on
// the Z2-reduced variant) is split into ranks = 2^pg contiguous slices;
// rank r owns global indices [r·2^(nEff−pg), (r+1)·2^(nEff−pg)). The
// low nEff−pg qubits are rank-LOCAL: the fused low sweep, the blocked
// local high groups and the diagonal cost phases all touch only
// rank-private memory (diagonals never communicate — every slice knows
// its global offset into the cost table). Only the top pg "global"
// qubits' RX rotations cross slices: each is one pairwise slice
// exchange between partner ranks r ↔ r^bit followed by an element-wise
// butterfly, the distributed analogue of rxHighPass.
//
// Execution model: ranks are persistent goroutines created at
// construction, each owning a comm.Comm handle, a subslice of one
// contiguous backing array, and per-rank pool scratch. An Evaluate
// signals every rank, the ranks run the layer schedule with
// barrier-separated slice exchanges, and each returns its slice's
// energy partial over a plain channel (deliberately NOT over the hpc
// world, so the comm ledger contains exactly the slice exchanges).
// Because the slices alias one backing array, the final-state "gather"
// is free at every rank count; a real multi-process deployment would
// replace Comm.ExchangeSlices with wire transfers and gather
// explicitly.
//
// The rank-local path allocates nothing in steady state; at ranks ≥ 2
// the only per-evaluation allocations are the comm layer's payload
// boxing. Call Stop (or let the finalizer run) to terminate the rank
// goroutines. Like Engine, a DistEngine is NOT safe for concurrent use.
type DistEngine struct {
	shared   *distShared
	world    *comm.World
	out      *State
	start    []chan distEvalReq
	results  chan distResult
	partials []float64 // per-rank energy partials, indexed by rank
	stats    DistStats
	stopOnce sync.Once
}

// distEvalReq carries one evaluation's parameters to a rank goroutine.
type distEvalReq struct {
	gammas, betas []float64
}

// distResult is one rank's energy contribution.
type distResult struct {
	rank   int
	energy float64
}

// distShared is the configuration and table set shared by all ranks.
// Rank goroutines reference ONLY this struct (plus their channels and
// comm handles), never the DistEngine itself — so an abandoned engine
// stays collectible and its finalizer can stop the ranks.
type distShared struct {
	nEff     int // sharded index-space qubits (nFull−1 when reduced)
	nLocal   int // rank-local qubits: nEff − pg
	pg       int // log2(ranks): global qubits routed through exchanges
	ranks    int
	sliceLen int  // amplitudes per rank: 2^nLocal
	z2       bool // slices hold the Z2-reduced half-vector
	m0       int  // low-group qubit count (capped at nLocal)

	diag   []float64 // GLOBAL expectation diagonal (reduced length when z2)
	levels []float64 // distinct phase values (indexed path)
	idx    []int32   // GLOBAL phase index (indexed path)
	shift  []float64 // GLOBAL dense phase diagonal (fallback path)

	globalLen float64 // 2^nEff, the first-layer amplitude normalizer

	// Fused-sweep ledger, written by rank 0 only (every rank runs the
	// identical schedule); read by the coordinator after the ranks'
	// result sends, which order the accesses.
	localSweeps int
	commSweeps  int
}

// distRank is one rank's execution state.
type distRank struct {
	sh   *distShared
	rank int
	base int // global amplitude offset of this slice
	comm *comm.Comm
	amps []complex128 // this rank's slice (subslice of the out state)
	recv []complex128 // exchange receive buffer (nil at ranks == 1)

	pool     *workerPool
	wg       sync.WaitGroup
	phases   []complex128   // per-layer phase scratch (own copy per rank)
	partials []float64      // per-chunk energy accumulators
	scratch  [][]complex128 // per-worker kernel scratch (workerScratch)

	// Current pass parameters, read by the prepared bodies.
	gamma  float64
	c, sn  float64
	first  bool
	expect bool
	g0, m  int  // current local high-group range
	bit0   bool // this rank holds the 0-side of the current global butterfly

	lowBody    func(w, start, end int)
	highBody   func(w, start, end int)
	globalBody func(w, start, end int)
}

// tagDistExchange tags the engine's slice exchanges on the hpc world.
// Rounds are barrier-separated (Comm.ExchangeSlices), so one tag
// suffices.
const tagDistExchange = 7

// NewDistEngine builds a sharded evaluator for an n-qubit cost diagonal
// over the given power-of-two rank count. Table semantics match
// NewEngine: diag is the 2^n expectation table and exactly one of
// (levels, idx) or shift gives the phase diagonal.
func NewDistEngine(n, ranks int, diag []float64, levels []float64, idx []int32, shift []float64) (*DistEngine, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("qsim: dist engine qubit count %d outside [1,%d]", n, MaxQubits)
	}
	return newDistEngine(n, 0, ranks, diag, levels, idx, shift)
}

// NewDistZ2Engine builds the symmetry-reduced sharded evaluator for an
// nFull-qubit Z2-symmetric diagonal: slices hold the 2^(nFull−1)
// even-sector half-vector and all tables are the REDUCED prefixes (as
// in NewZ2Engine). The boundary rotation of qubit nFull−1 pairs global
// index i with its complement — tile t with tile 2^(nFull−1−m0)−1−t —
// so on multi-rank layouts it rides a mirror slice exchange between
// ranks r ↔ ranks−1−r (skipped on the first layer, whose phased-|+⟩
// synthesis reads no amplitudes). Requires ranks ≤ 2^(nFull−2) so every
// rank keeps at least one local qubit of the half-vector.
func NewDistZ2Engine(nFull, ranks int, diag []float64, levels []float64, idx []int32, shift []float64) (*DistEngine, error) {
	if nFull < 2 {
		return nil, fmt.Errorf("qsim: dist z2 reduction needs at least 2 qubits, got %d", nFull)
	}
	if nFull > MaxQubits {
		return nil, fmt.Errorf("qsim: dist engine %d qubits exceeds MaxQubits=%d", nFull, MaxQubits)
	}
	return newDistEngine(nFull-1, nFull, ranks, diag, levels, idx, shift)
}

func newDistEngine(nEff, z2Full, ranks int, diag []float64, levels []float64, idx []int32, shift []float64) (*DistEngine, error) {
	e, rs, err := buildDistEngine(nEff, z2Full, ranks, diag, levels, idx, shift)
	if err != nil {
		return nil, err
	}
	e.launch(rs)
	return e, nil
}

// buildDistEngine validates the configuration and wires the engine and
// its rank states; nothing runs until launch.
func buildDistEngine(nEff, z2Full, ranks int, diag []float64, levels []float64, idx []int32, shift []float64) (*DistEngine, []*distRank, error) {
	pg := 0
	for 1<<uint(pg) < ranks {
		pg++
	}
	if ranks < 1 || 1<<uint(pg) != ranks {
		return nil, nil, fmt.Errorf("qsim: dist engine rank count %d is not a power of two", ranks)
	}
	if pg > nEff-1 {
		return nil, nil, fmt.Errorf("qsim: %d ranks leave no local qubits on a %d-qubit slice space (need ranks ≤ %d)",
			ranks, nEff, 1<<uint(nEff-1))
	}
	size := 1 << uint(nEff)
	if len(diag) != size {
		return nil, nil, fmt.Errorf("qsim: dist engine diagonal has %d entries, want %d", len(diag), size)
	}
	indexed := levels != nil || idx != nil
	if indexed && (levels == nil || idx == nil) {
		return nil, nil, fmt.Errorf("qsim: dist engine phase levels and index must be given together")
	}
	if indexed == (shift != nil) {
		return nil, nil, fmt.Errorf("qsim: dist engine needs exactly one of (levels, idx) or shift")
	}
	if indexed && len(idx) != size {
		return nil, nil, fmt.Errorf("qsim: dist engine phase index has %d entries, want %d", len(idx), size)
	}
	if shift != nil && len(shift) != size {
		return nil, nil, fmt.Errorf("qsim: dist engine phase diagonal has %d entries, want %d", len(shift), size)
	}

	sh := &distShared{
		nEff:      nEff,
		nLocal:    nEff - pg,
		pg:        pg,
		ranks:     ranks,
		sliceLen:  size / ranks,
		z2:        z2Full != 0,
		diag:      diag,
		levels:    levels,
		idx:       idx,
		shift:     shift,
		globalLen: float64(size),
	}
	sh.m0 = sh.nLocal
	if sh.m0 > lowBlockQubits {
		sh.m0 = lowBlockQubits
	}
	if sh.z2 && sh.m0 == lowBlockQubits {
		// Mirror sweeps work on a 2-tile scratch pair; halving the tile
		// keeps the pair at the 16 KiB L1 working set (see NewZ2Engine).
		sh.m0 = lowBlockQubits - 1
	}

	world, err := comm.NewWorld(ranks)
	if err != nil {
		return nil, nil, err
	}
	out := &State{n: nEff, amps: make([]complex128, size), z2Full: z2Full}
	e := &DistEngine{
		shared:   sh,
		world:    world,
		out:      out,
		start:    make([]chan distEvalReq, ranks),
		results:  make(chan distResult, ranks),
		partials: make([]float64, ranks),
	}
	pool := defaultPool()
	workers := 1
	if pool != nil {
		workers = pool.workers
	}
	rs := make([]*distRank, ranks)
	for r := 0; r < ranks; r++ {
		comm, err := world.Rank(r)
		if err != nil {
			return nil, nil, err
		}
		d := &distRank{
			sh:       sh,
			rank:     r,
			base:     r * sh.sliceLen,
			comm:     comm,
			amps:     out.amps[r*sh.sliceLen : (r+1)*sh.sliceLen],
			pool:     pool,
			phases:   make([]complex128, len(levels)),
			partials: make([]float64, workers),
			scratch:  workerScratch(workers, scratchLen(sh.nLocal, sh.m0, sh.z2)),
		}
		if pg > 0 {
			d.recv = make([]complex128, sh.sliceLen)
		}
		d.lowBody = d.runLowChunk
		if sh.z2 {
			d.lowBody = d.runMirrorChunk
		}
		d.highBody = d.runHighChunk
		d.globalBody = d.runGlobalChunk
		rs[r] = d
	}
	return e, rs, nil
}

// launch starts one persistent goroutine per rank and arms the
// finalizer that stops them when the engine is abandoned.
func (e *DistEngine) launch(rs []*distRank) {
	for r, d := range rs {
		e.start[r] = make(chan distEvalReq, 1)
		go runDistRank(d, e.start[r], e.results)
	}
	runtime.SetFinalizer(e, (*DistEngine).Stop)
}

// runDistRank is a rank goroutine's loop: one evaluation per request,
// until the start channel closes (Stop).
func runDistRank(d *distRank, start <-chan distEvalReq, results chan<- distResult) {
	for req := range start {
		results <- distResult{rank: d.rank, energy: d.evaluate(req.gammas, req.betas)}
	}
}

// Stop terminates the rank goroutines. Safe to call more than once; the
// engine is unusable afterwards. Abandoned engines are stopped by a
// finalizer, but deterministic teardown (tests, bounded fleets) should
// call Stop explicitly.
func (e *DistEngine) Stop() {
	e.stopOnce.Do(func() {
		for _, ch := range e.start {
			close(ch)
		}
	})
}

// State returns the gathered statevector: because rank slices alias one
// contiguous backing array, it is complete and current after every
// Evaluate with no copy at any rank count (valid until the next
// Evaluate). On the Z2-reduced variant it is a reduced state whose
// measurement accessors report full-space results.
func (e *DistEngine) State() *State { return e.out }

// Ranks returns the rank count.
func (e *DistEngine) Ranks() int { return e.shared.ranks }

// Stats returns the cumulative communication ledger: LocalGates and
// CommGates count fused SWEEPS (one blocked sweep ≈ one fused gate
// layer, not one per-qubit gate), MessagesSent/BytesSent are measured
// from the hpc world's traffic counters across Evaluate calls.
func (e *DistEngine) Stats() DistStats { return e.stats }

// CommBytesExpected is the closed-form exchange volume of ONE Evaluate
// at depth layers on this engine's configuration: per layer each of the
// pg global qubits moves every slice once (ranks messages of
// sliceLen·16 bytes), and the Z2 variant adds one mirror exchange per
// layer after the first. Zero at ranks == 1. The dist engine tests gate
// the measured BytesSent against this exactly.
func (e *DistEngine) CommBytesExpected(layers int) uint64 {
	sh := e.shared
	if sh.pg == 0 || layers == 0 {
		return 0
	}
	rounds := uint64(layers) * uint64(sh.pg)
	if sh.z2 {
		rounds += uint64(layers - 1)
	}
	return rounds * uint64(sh.ranks) * uint64(sh.sliceLen) * 16
}

// CommBytesExpected is the closed-form exchange volume of the fused
// distributed schedule WITHOUT the Z2 reduction: layers · log2(ranks)
// exchange rounds, each moving every rank's full slice of 2^(n−log2
// ranks) amplitudes at 16 bytes each. Zero at ranks == 1 (everything is
// local). The method hangs off DistStats so tests can gate a measured
// ledger against theory next to the counters themselves; the Z2-reduced
// engine's schedule differs (mirror exchanges, halved slices) — use
// DistEngine.CommBytesExpected for an engine's own configuration.
func (DistStats) CommBytesExpected(n, ranks, layers int) uint64 {
	pg := 0
	for 1<<uint(pg) < ranks {
		pg++
	}
	if ranks < 1 || 1<<uint(pg) != ranks || pg == 0 {
		return 0
	}
	return uint64(layers) * uint64(pg) * uint64(ranks) * (uint64(16) << uint(n-pg))
}

// Evaluate runs the full p-layer fused evaluation at (γ⃗, β⃗) across all
// ranks and returns the exact energy ⟨ψ|D|ψ⟩. Partials are summed in
// rank order (and per-worker order inside each rank), so repeated
// evaluations are bit-identical.
func (e *DistEngine) Evaluate(gammas, betas []float64) float64 {
	if len(gammas) != len(betas) {
		panic(fmt.Sprintf("qsim: dist engine got %d gammas but %d betas", len(gammas), len(betas)))
	}
	before := e.world.Stats()
	for _, ch := range e.start {
		ch <- distEvalReq{gammas: gammas, betas: betas}
	}
	for i := 0; i < e.shared.ranks; i++ {
		res := <-e.results
		e.partials[res.rank] = res.energy
	}
	total := 0.0
	for _, v := range e.partials {
		total += v
	}
	after := e.world.Stats()
	e.stats.MessagesSent += int(after.Messages - before.Messages)
	e.stats.BytesSent += uint64(after.Bytes - before.Bytes)
	e.stats.LocalGates = e.shared.localSweeps
	e.stats.CommGates = e.shared.commSweeps
	return total
}

// evaluate is one rank's full evaluation: the Engine layer schedule on
// the local slice, with global-qubit rotations routed through
// barrier-separated slice exchanges.
func (d *distRank) evaluate(gammas, betas []float64) float64 {
	sh := d.sh
	p := len(gammas)
	if p == 0 {
		// Degenerate ⟨+|D|+⟩: fill the slice and dot it locally.
		amp := complex(1/math.Sqrt(sh.globalLen), 0)
		acc := 0.0
		for i := range d.amps {
			d.amps[i] = amp
			dv := sh.diag[d.base+i]
			acc += real(amp) * real(amp) * dv
		}
		if d.rank == 0 {
			sh.localSweeps++
		}
		return acc
	}
	localGroups := 1 + (sh.nLocal-sh.m0+mixerBlockQubits-1)/mixerBlockQubits
	tiles := len(d.amps) >> uint(sh.m0)
	lowTotal, lowLen := tiles, 1<<uint(sh.m0)
	if sh.z2 {
		lowLen *= 2
		if sh.pg == 0 {
			// Single-rank mirror sweep consumes tile PAIRS, as in Engine.
			lowTotal = tiles / 2
			if lowTotal == 0 {
				lowTotal = 1
			}
		}
		// Multi-rank: every local tile is one mirror item (its partner
		// tile arrives in the recv buffer), so lowTotal stays == tiles.
	}
	for l := 0; l < p; l++ {
		d.gamma = gammas[l]
		d.c = math.Cos(betas[l]) // RX(2β): θ/2 = β
		d.sn = math.Sin(betas[l])
		d.first = l == 0
		last := l == p-1
		if sh.levels != nil {
			amp := 1.0
			if d.first {
				amp = 1 / math.Sqrt(sh.globalLen)
			}
			for j, v := range sh.levels {
				sin, cos := math.Sincos(-d.gamma * v)
				d.phases[j] = complex(amp*cos, amp*sin)
			}
		}
		if sh.z2 && sh.pg > 0 && !d.first {
			// Mirror exchange for the fused boundary rotation. The first
			// layer synthesizes phase·|+⟩ straight from the tables and
			// reads no amplitudes, so it needs no partner data.
			d.comm.ExchangeSlices(sh.ranks-1-d.rank, tagDistExchange, d.amps, d.recv)
			if d.rank == 0 {
				sh.commSweeps++
			}
		}
		d.expect = last && localGroups == 1 && sh.pg == 0
		if d.expect {
			d.resetPartials()
		}
		d.dispatch(lowTotal, lowLen, d.lowBody)
		for g0 := sh.m0; g0 < sh.nLocal; g0 += mixerBlockQubits {
			d.g0 = g0
			d.m = sh.nLocal - g0
			if d.m > mixerBlockQubits {
				d.m = mixerBlockQubits
			}
			d.expect = last && sh.pg == 0 && g0+mixerBlockQubits >= sh.nLocal
			if d.expect {
				d.resetPartials()
			}
			batches := len(d.amps) >> uint(d.m) / highBatch
			d.dispatch(batches, 1<<uint(d.m)*highBatch, d.highBody)
		}
		if d.rank == 0 {
			sh.localSweeps += localGroups
		}
		for gq := 0; gq < sh.pg; gq++ {
			partner := d.rank ^ 1<<uint(gq)
			d.comm.ExchangeSlices(partner, tagDistExchange, d.amps, d.recv)
			d.bit0 = d.rank&(1<<uint(gq)) == 0
			d.expect = last && gq == sh.pg-1
			if d.expect {
				d.resetPartials()
			}
			d.dispatch(len(d.amps), 1, d.globalBody)
			if d.rank == 0 {
				sh.commSweeps++
			}
		}
	}
	total := 0.0
	for _, v := range d.partials {
		total += v
	}
	return total
}

func (d *distRank) resetPartials() {
	for i := range d.partials {
		d.partials[i] = 0
	}
}

// dispatch runs a pass body over [0, total) chunks through the shared
// kernel pool, inline when the rank's sweep is too small to amortize
// dispatch. Concurrent ranks interleave their chunks on the same
// workers; each rank waits only on its own WaitGroup.
func (d *distRank) dispatch(total, itemLen int, body func(w, start, end int)) {
	if d.pool == nil || total*itemLen < parallelThreshold {
		body(0, 0, total)
		return
	}
	d.pool.run(total, body, &d.wg)
}

// phaseTile applies the current layer's cost phases to one tile of the
// local slice; base is the tile's GLOBAL offset into the shared tables
// (the first-layer amplitude normalizer is the global vector length —
// the slice is a window, not a smaller state).
func (d *distRank) phaseTile(buf []complex128, base int) {
	sh := d.sh
	if sh.levels != nil {
		idx := sh.idx[base : base+len(buf)]
		ph := d.phases
		if d.first {
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
	shf := sh.shift[base : base+len(buf)]
	gamma := d.gamma
	if d.first {
		amp0 := 1 / math.Sqrt(sh.globalLen)
		for i := range buf {
			sin, cos := math.Sincos(-gamma * shf[i])
			buf[i] = complex(amp0*cos, amp0*sin)
		}
	} else {
		for i := range buf {
			sin, cos := math.Sincos(-gamma * shf[i])
			buf[i] *= complex(cos, sin)
		}
	}
}

// phaseTileInto is phaseTile fused with the mirror sweep's scratch
// load (see Engine.phaseTileInto): src may belong to the local slice or
// to the partner's received copy, base is always the tile's GLOBAL
// table offset, and on the first layer src is not read at all.
func (d *distRank) phaseTileInto(dst, src []complex128, base int, reversed bool) {
	sh := d.sh
	last := len(dst) - 1
	if sh.levels != nil {
		idx := sh.idx[base : base+len(dst)]
		ph := d.phases
		switch {
		case d.first && reversed:
			for i := range dst {
				dst[i] = ph[idx[last-i]]
			}
		case d.first:
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
	shf := sh.shift[base : base+len(dst)]
	gamma := d.gamma
	if d.first {
		amp0 := 1 / math.Sqrt(sh.globalLen)
		for i := range dst {
			j := i
			if reversed {
				j = last - i
			}
			sin, cos := math.Sincos(-gamma * shf[j])
			dst[i] = complex(amp0*cos, amp0*sin)
		}
		return
	}
	for i := range dst {
		j := i
		if reversed {
			j = last - i
		}
		sin, cos := math.Sincos(-gamma * shf[j])
		dst[i] = src[j] * complex(cos, sin)
	}
}

// runLowChunk is the fused low sweep on the local slice: per tile,
// phase (global table offset), low butterfly levels, and the optional
// cache-resident energy fold.
func (d *distRank) runLowChunk(w, start, end int) {
	sh := d.sh
	amps := d.amps
	tl := 1 << uint(sh.m0)
	c, sn := d.c, d.sn
	acc := 0.0
	for t := start; t < end; t++ {
		lb := t * tl
		gb := d.base + lb
		buf := amps[lb : lb+tl]
		d.phaseTile(buf, gb)
		rxTile(buf, 1, c, sn)
		if d.expect {
			dg := sh.diag[gb : gb+tl]
			for i := range buf {
				a := buf[i]
				re, im := real(a), imag(a)
				acc += (re*re + im*im) * dg[i]
			}
		}
	}
	if d.expect {
		d.partials[w] += acc
	}
}

// runMirrorChunk is the Z2 variant's fused low sweep. The boundary
// rotation pairs GLOBAL tile t with global tile T−1−t (Engine.
// runMirrorChunk); on a single rank both tiles are local and chunk
// items are tile pairs, while on multi-rank layouts tile T−1−t lives on
// mirror rank ranks−1−r and arrived through this layer's mirror
// exchange. Both sides of a mirror pair assemble the identical 2-tile
// scratch and keep only their own half — the low butterfly work is done
// twice across the pair, which is cheaper than a second exchange to
// return the partner half (the standard redundant-compute tradeoff of
// distributed mirrored sweeps).
func (d *distRank) runMirrorChunk(w, start, end int) {
	sh := d.sh
	amps := d.amps
	tl := 1 << uint(sh.m0)
	c, sn := d.c, d.sn
	acc := 0.0
	localTiles := len(amps) >> uint(sh.m0)
	if sh.pg == 0 {
		globalTiles := localTiles
		if globalTiles == 1 {
			// Single-tile half-vector: all low levels in place, then the
			// boundary reversal as a scalar pass.
			d.phaseTile(amps, d.base)
			rxTile(amps, 1, c, sn)
			z2Boundary(amps, c, sn)
			if d.expect {
				for i := range amps {
					a := amps[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * sh.diag[d.base+i]
				}
				d.partials[w] += acc
			}
			return
		}
		sc := d.scratch[w][:2*tl]
		for t := start; t < end; t++ {
			fb := t * tl
			rb := (globalTiles - 1 - t) * tl
			fwd := amps[fb : fb+tl]
			rev := amps[rb : rb+tl]
			d.phaseTileInto(sc[:tl], fwd, fb, false)
			d.phaseTileInto(sc[tl:2*tl], rev, rb, true)
			rxTile(sc, 1, c, sn)
			copy(fwd, sc[:tl])
			for i := 0; i < tl; i++ {
				rev[tl-1-i] = sc[tl+i]
			}
			if d.expect {
				df := sh.diag[fb : fb+tl]
				dr := sh.diag[rb : rb+tl]
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
		if d.expect {
			d.partials[w] += acc
		}
		return
	}

	// Multi-rank: chunk items are LOCAL tiles. Ranks below ranks/2 hold
	// the forward member of every mirror pair, upper ranks the reversed
	// member; the partner tile is recv[localTiles−1−j] either way.
	globalTiles := localTiles * sh.ranks
	fwdSide := d.rank < sh.ranks/2
	sc := d.scratch[w][:2*tl]
	for j := start; j < end; j++ {
		gt := d.rank*localTiles + j
		mirror := (localTiles - 1 - j) * tl
		if fwdSide {
			fb := gt * tl
			rb := (globalTiles - 1 - gt) * tl
			fwd := amps[j*tl : j*tl+tl]
			rev := d.recv[mirror : mirror+tl]
			d.phaseTileInto(sc[:tl], fwd, fb, false)
			d.phaseTileInto(sc[tl:2*tl], rev, rb, true)
			rxTile(sc, 1, c, sn)
			copy(fwd, sc[:tl])
			if d.expect {
				df := sh.diag[fb : fb+tl]
				for i := 0; i < tl; i++ {
					a := fwd[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * df[i]
				}
			}
		} else {
			rb := gt * tl
			fb := (globalTiles - 1 - gt) * tl
			fwd := d.recv[mirror : mirror+tl]
			rev := amps[j*tl : j*tl+tl]
			d.phaseTileInto(sc[:tl], fwd, fb, false)
			d.phaseTileInto(sc[tl:2*tl], rev, rb, true)
			rxTile(sc, 1, c, sn)
			for i := 0; i < tl; i++ {
				rev[tl-1-i] = sc[tl+i]
			}
			if d.expect {
				dr := sh.diag[rb : rb+tl]
				for i := 0; i < tl; i++ {
					a := rev[i]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * dr[i]
				}
			}
		}
	}
	if d.expect {
		d.partials[w] += acc
	}
}

// runHighChunk runs the current local high group's sweep (rxHighSweep)
// over one chunk of batches; the energy fold indexes the GLOBAL
// diagonal through this slice's window of it.
func (d *distRank) runHighChunk(w, start, end int) {
	if d.expect {
		diag := d.sh.diag[d.base : d.base+len(d.amps)]
		d.partials[w] += rxHighSweep(d.amps, d.scratch[w], diag, d.g0, d.m, start, end, d.c, d.sn)
		return
	}
	rxHighSweep(d.amps, d.scratch[w], nil, d.g0, d.m, start, end, d.c, d.sn)
}

// runGlobalChunk is the element-wise butterfly of one global qubit's RX
// after the slice exchange: this rank holds one side of every pair, the
// partner's amplitudes sit in recv. Arithmetic matches State.ApplyRX
// exactly (4 real multiplies per amplitude).
func (d *distRank) runGlobalChunk(w, start, end int) {
	c, sn := d.c, d.sn
	mine := d.amps
	theirs := d.recv
	if !d.expect {
		if d.bit0 {
			for i := start; i < end; i++ {
				a0, a1 := mine[i], theirs[i]
				mine[i] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
			}
		} else {
			for i := start; i < end; i++ {
				a0, a1 := theirs[i], mine[i]
				mine[i] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
			}
		}
		return
	}
	sh := d.sh
	acc := 0.0
	if d.bit0 {
		for i := start; i < end; i++ {
			a0, a1 := mine[i], theirs[i]
			v := complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
			mine[i] = v
			re, im := real(v), imag(v)
			acc += (re*re + im*im) * sh.diag[d.base+i]
		}
	} else {
		for i := start; i < end; i++ {
			a0, a1 := theirs[i], mine[i]
			v := complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
			mine[i] = v
			re, im := real(v), imag(v)
			acc += (re*re + im*im) * sh.diag[d.base+i]
		}
	}
	d.partials[w] += acc
}
