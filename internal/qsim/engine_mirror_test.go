package qsim

import (
	"fmt"
	"math"
	"testing"
)

// phaseTileInto is the phase load the low sweeps ran before the
// phase-on-load kernel: it reads src (one tile of the vector), applies
// the layer's phases in plain Go, and writes the result to dst — in
// index order when reversed is false, back-to-front
// (dst[i] ← src[len−1−i]) when true. base is the tile's offset into the
// diagonal tables, addressed in SRC order. On the first layer src is
// not read at all. dst may be src itself when reversed is false.
func (e *Engine) phaseTileInto(dst, src []complex128, base int, reversed bool) {
	last := len(dst) - 1
	if e.cost.Idx != nil {
		idx := e.cost.Idx[base : base+len(dst)]
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
	sh := e.cost.Shift[base : base+len(dst)]
	gamma := e.gamma
	if e.first {
		amp0 := e.norm
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

// scratchLowBody is the low-sweep oracle: the engine's low sweep as it
// ran before the in-place mirror sweep, with the phases applied in
// plain Go. On a Z2 engine each mirror pair is loaded into a 2·tileLen
// scratch buffer — the tile forward, its mirror reversed — where one
// rxTile call runs every low level and the boundary level, and is then
// copied back; a single-tile vector takes the scalar boundary pass. On
// an unreduced engine each tile is phased and butterflied in place.
// Each chunk works in a scratch buffer of its own.
func scratchLowBody(e *Engine) func(w, start, end int) {
	tl := 1 << uint(e.m0)
	return func(_, start, end int) {
		c, sn := e.c, e.sn
		tiles := len(e.amps) >> uint(e.m0)
		if !e.z2 || tiles == 1 {
			for t := start; t < end; t++ {
				b := t * tl
				buf := e.amps[b : b+tl]
				e.phaseTileInto(buf, buf, b, false)
				rxTile(buf, 1, c, sn)
				if e.z2 {
					z2Boundary(buf, c, sn)
				}
			}
			return
		}
		buf := make([]complex128, 2*tl)
		for t := start; t < end; t++ {
			fb, rb := t*tl, (tiles-1-t)*tl
			fwd, rev := e.amps[fb:fb+tl], e.amps[rb:rb+tl]
			e.phaseTileInto(buf[:tl], fwd, fb, false)
			e.phaseTileInto(buf[tl:], rev, rb, true)
			rxTile(buf, 1, c, sn)
			copy(fwd, buf[:tl])
			for i := range rev {
				rev[tl-1-i] = buf[tl+i]
			}
		}
	}
}

// TestEnginesBitIdenticalToScratchLowSweep runs the engine against a
// twin whose low sweep is the scratch oracle, in every kernel tier:
// energy and every amplitude must agree in their float64 bits at
// nFull = 2…21 (single-tile reduced vectors through one mirror pair and
// up), p = 1…3, reduced and unreduced, indexed and dense phases. The
// twin differs from the production engine only in its lowBody, swapped
// after NewEngine. Under -short and the race detector the sizes stop at
// nFull = 16, which still dispatches its sweeps through the kernel pool.
func TestEnginesBitIdenticalToScratchLowSweep(t *testing.T) {
	maxFull := 21
	if testing.Short() || raceDetector {
		maxFull = 16
	}
	kernelTiers(t, func(t *testing.T) {
		for nFull := 2; nFull <= maxFull; nFull++ {
			for _, z2 := range []bool{false, true} {
				diag, levels, idx, shift := z2Fixture(t, nFull, uint64(nFull)*5+2)
				for _, dense := range bothPhases {
					eng, _ := testEngine(t, nFull, z2, dense, diag, levels, idx, shift)
					twin, _ := testEngine(t, nFull, z2, dense, diag, levels, idx, shift)
					twin.lowBody = scratchLowBody(twin)
					name := fmt.Sprintf("nFull=%d z2=%v dense=%v", nFull, z2, dense)
					for p := 1; p <= 3; p++ {
						gammas, betas := engineParams(nFull, p)
						got, want := eng.Evaluate(gammas, betas), twin.Evaluate(gammas, betas)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s p=%d: energy %v, oracle sweep %v", name, p, got, want)
						}
						if i := firstBitDiff(eng.amps, twin.amps); i >= 0 {
							t.Fatalf("%s p=%d: amp %d = %v, oracle sweep %v", name, p, i, eng.amps[i], twin.amps[i])
						}
					}
				}
			}
		}
	})
}
