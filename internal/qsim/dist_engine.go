package qsim

import "runtime"

// The sharded engine's rank wiring. A sharded Engine (NewEngine with
// ranks > 1) runs one sweep core per rank slice; everything here is
// what sharding adds on top of the single-node engine: the persistent
// rank goroutines, the slice exchanges over the comm world, the
// element-wise butterfly of a global qubit (runGlobalChunk) and the
// communication ledger.
//
// Execution model: ranks 1…R−1 are persistent goroutines created at
// launch, each owning its core (a comm.Comm handle, a subslice of the
// engine's one backing array, and per-rank pool scratch); rank 0 runs
// on the caller's goroutine. The ranks run the layer schedule with
// barrier-separated slice exchanges, and each returns its slice's
// energy partial over a plain channel (deliberately NOT over the hpc
// world, so the comm ledger contains exactly the slice exchanges).
// Because the slices alias one backing array, the final-state "gather"
// is free at every rank count; a real multi-process deployment would
// replace Comm.ExchangeSlices with wire transfers and gather
// explicitly. Nothing here allocates per evaluation. Call Stop (or let
// the finalizer run) to terminate the rank goroutines.

// DistStats records the communication behaviour of a distributed
// simulation; the scaling experiment (paper §4: "33 qubits ... on 512
// compute nodes", "almost ideal scaling") reads these counters.
type DistStats struct {
	LocalGates   int    // gates applied without communication
	CommGates    int    // gates that required rank exchange
	MessagesSent int    // point-to-point messages (one per rank per exchange)
	BytesSent    uint64 // payload volume of those messages
}

// evalReq carries one evaluation's parameters to a rank goroutine.
type evalReq struct {
	gammas, betas []float64
}

// rankResult is one rank's energy contribution.
type rankResult struct {
	rank   int
	energy float64
}

// tagDistExchange tags the engine's slice exchanges on the hpc world.
// Rounds are barrier-separated (Comm.ExchangeSlices), so one tag
// suffices.
const tagDistExchange = 7

// launch starts one persistent goroutine per rank beyond rank 0 and
// arms the finalizer that stops them when the engine is abandoned. The
// goroutines reference only their cores and channels, never the
// Engine, so an abandoned engine stays collectible. A no-op on an
// inline engine.
func (e *Engine) launch() {
	if e.world == nil {
		return
	}
	e.start = make([]chan evalReq, len(e.cores)-1)
	e.results = make(chan rankResult, len(e.cores)-1)
	for r, c := range e.cores[1:] {
		e.start[r] = make(chan evalReq, 1)
		go runRank(c, e.start[r], e.results)
	}
	runtime.SetFinalizer(e, (*Engine).Stop)
}

// runRank is a rank goroutine's loop: one evaluation per request, until
// the start channel closes (Stop).
func runRank(c *sweep, start <-chan evalReq, results chan<- rankResult) {
	for req := range start {
		results <- rankResult{rank: c.rank, energy: c.evaluate(req.gammas, req.betas)}
	}
}

// Stop terminates the rank goroutines. Safe to call more than once and
// a no-op on an inline engine; a sharded engine is unusable afterwards.
// Abandoned engines are stopped by a finalizer, but deterministic
// teardown (tests, bounded fleets) should call Stop explicitly.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		for _, ch := range e.start {
			close(ch)
		}
	})
}

// Ranks returns the rank count (1 on an inline engine).
func (e *Engine) Ranks() int { return len(e.cores) }

// Stats returns the cumulative communication ledger: LocalGates and
// CommGates count fused SWEEPS (one blocked sweep ≈ one fused gate
// layer, not one per-qubit gate) of one rank — every rank runs the
// identical schedule — and MessagesSent/BytesSent are measured from the
// hpc world's traffic counters across Evaluate calls.
func (e *Engine) Stats() DistStats {
	st := e.stats
	st.LocalGates = e.cores[0].localSweeps
	st.CommGates = e.cores[0].commSweeps
	return st
}

// CommBytesExpected is the closed-form exchange volume of ONE Evaluate
// at depth layers on this engine's configuration: per layer each of the
// pg global qubits moves every slice once (ranks messages of
// sliceLen·16 bytes), and the Z2 variant adds one mirror exchange per
// layer after the first. Zero at ranks == 1. The engine tests gate the
// measured BytesSent against this exactly.
func (e *Engine) CommBytesExpected(layers int) uint64 {
	c := e.cores[0]
	if c.pg == 0 || layers == 0 {
		return 0
	}
	rounds := uint64(layers) * uint64(c.pg)
	if c.z2 {
		rounds += uint64(layers - 1)
	}
	return rounds * uint64(c.ranks) * uint64(len(c.amps)) * 16
}

// evaluateRanks runs one evaluation across all ranks — rank 0 on the
// caller's goroutine — and sums their energies in rank order.
func (e *Engine) evaluateRanks(gammas, betas []float64) float64 {
	before := e.world.Stats()
	for _, ch := range e.start {
		ch <- evalReq{gammas: gammas, betas: betas}
	}
	e.partials[0] = e.cores[0].evaluate(gammas, betas)
	for range e.start {
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
	return total
}

// exchange swaps this core's slice with partner's into recv (one
// barrier-separated round over the world) and books it in the ledger.
func (s *sweep) exchange(partner int) {
	s.comm.ExchangeSlices(partner, tagDistExchange, s.amps, s.recv)
	s.commSweeps++
}

// runGlobalChunk is the element-wise butterfly of one global qubit's RX
// after the slice exchange: this rank holds one side of every pair, the
// partner's amplitudes sit in recv. Arithmetic matches State.ApplyRX
// exactly (4 real multiplies per amplitude).
func (s *sweep) runGlobalChunk(w, start, end int) {
	c, sn := s.c, s.sn
	mine, theirs := s.amps[start:end], s.recv[start:end]
	if s.bit0 {
		for i, a0 := range mine {
			a1 := theirs[i]
			mine[i] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
		}
	} else {
		for i, a1 := range mine {
			a0 := theirs[i]
			mine[i] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
		}
	}
	if s.expect {
		s.partials[w] += s.cost.fold(0, mine, s.base+start)
	}
}
