package qsim

import (
	"math"
	"sync"
)

// Cache-blocked multi-qubit mixer kernels. The QAOA mixer layer applies
// RX(2β) to every qubit; done gate by gate that is n full statevector
// sweeps per layer, and at 16+ qubits the sweeps stream the whole state
// through the cache hierarchy n times. The blocked kernel instead
// partitions the qubits into groups and applies all butterflies of a
// group in ONE sweep, working tile by tile in a cache-resident window —
// gate fusion and cache blocking, the two simulator optimizations Lin
// et al. (arXiv:2312.03019) report dominate QAOA-for-MaxCut workloads.
// Sweep count per layer drops from n to ⌈1 + (n−10)/6⌉ (n > 10).
//
// Tile geometry: for the qubit group [g0, g0+m) a tile is the set of
// 2^m amplitudes {base | v<<g0, v = 0..2^m−1}.
//
//   - The LOW group (g0 = 0) covers up to lowBlockQubits qubits; its
//     tiles are contiguous 16 KiB slices transformed fully in place.
//
//   - HIGH groups cover mixerBlockQubits qubits each. Their tiles are
//     strided; highBatch consecutive tiles (adjacent base indices) are
//     processed together as 2^m ROWS of highBatch contiguous
//     amplitudes, 2^g0 apart — the "paired-block" pattern generalized
//     to 2^m blocks per pass. The rows are never copied out and back:
//     the first butterfly level reads them where they live and lands in
//     an 8 KiB scratch, the middle levels run in scratch, and the last
//     level stores straight back to the rows (rxHighSweep).
//
// Four kernels carry all of it, each in three tiers — AVX-512F,
// AVX2+FMA (mixer_avx512_amd64.s, mixer_amd64.s) and portable Go —
// picked once per process (KernelTier):
//
//   - rxTile runs a whole butterfly network on a contiguous tile;
//   - rxRows runs one level over rows with independent source and
//     destination strides;
//   - rxMirror runs the one level that pairs a tile with a second tile
//     read back to front — the Z2 engine's boundary qubit across a
//     mirror tile pair (Engine.runMirrorChunk);
//   - phaseIdx applies the indexed cost phases to a tile where it
//     lives, the engine's phase-on-load.
//
// Within a tier the three butterfly kernels apply the same
// c·v + σ⊙swap(partner) update, so how a network is split between them
// does not change a bit of the result; phaseIdx multiplies unfused, as
// Go's complex product does, so all its tiers give the same bits.
// Across tiers, and against the per-qubit ApplyRX walk, mixer_test.go
// pins amplitudes at 1e-12.

const (
	// lowBlockQubits sizes the in-place low group: 2^10 amplitudes =
	// 16 KiB tiles, L1-resident through all ten butterfly levels.
	lowBlockQubits = 10
	// mixerBlockQubits sizes the high groups: with highBatch tiles per
	// batch the scratch working set is 2^6·highBatch amplitudes = 8 KiB,
	// and one pass over the strided rows is amortized over six levels.
	mixerBlockQubits = 6
	// highBatch is the number of consecutive tiles processed per batch;
	// their base indices are adjacent, so every row is highBatch·16 =
	// 128 contiguous bytes, two cache lines (the assembly row kernels
	// hard-code this width).
	highBatch = 8
	// highBufLen is the high sweep's scratch length.
	highBufLen = (1 << mixerBlockQubits) * highBatch
)

// ApplyRXAll applies RX(θ) to every qubit in blocked sweeps
// (equivalent to calling ApplyRX(q, θ) for q = 0..n−1, up to
// floating-point rounding).
func (s *State) ApplyRXAll(theta float64) {
	c := math.Cos(theta / 2)
	sn := math.Sin(theta / 2)
	m0 := s.n
	if m0 > lowBlockQubits {
		m0 = lowBlockQubits
	}
	s.rxLowPass(m0, c, sn)
	for g0 := m0; g0 < s.n; g0 += mixerBlockQubits {
		m := s.n - g0
		if m > mixerBlockQubits {
			m = mixerBlockQubits
		}
		s.rxHighPass(g0, m, c, sn)
	}
}

// rxLowPass butterflies qubits [0, m) in one in-place sweep of
// contiguous tiles.
func (s *State) rxLowPass(m int, c, sn float64) {
	tl := 1 << uint(m)
	tiles := len(s.amps) >> uint(m)
	amps := s.amps
	s.parForTiles(tiles, tl, func(start, end int) {
		for t := start; t < end; t++ {
			rxTile(amps[t*tl:t*tl+tl], 1, c, sn)
		}
	})
}

// rxHighPass butterflies qubits [g0, g0+m) in one sweep. g0 ≥
// lowBlockQubits, so the tile stride 2^g0 is a multiple of highBatch
// and batches never straddle a stride boundary.
func (s *State) rxHighPass(g0, m int, c, sn float64) {
	batches := len(s.amps) >> uint(m) / highBatch
	amps := s.amps
	s.parForTiles(batches, highBatch<<uint(m), func(start, end int) {
		rxHighSweep(amps, make([]complex128, highBufLen), nil, g0, m, start, end, c, sn)
	})
}

// rxHighSweep is THE high-group sweep: it butterflies qubits [g0, g0+m)
// over batches [start, end), each batch being highBatch adjacent tiles —
// 2^m rows of highBatch contiguous amplitudes, 2^g0 apart. The
// engine and ApplyRXAll both reach the high butterflies through it.
//
// The state is never copied. The first level (d = 1) reads the strided
// rows where they live and writes the butterflied result into scratch
// (the caller's, at least highBufLen long and ideally cache-line
// aligned — see workerScratch); the middle levels run in scratch
// through rxTile, one call per half because the last level is held
// back; the last level (d = 2^(m−1)) reads scratch and stores straight
// back to the strided rows. A one-qubit group is a single in-place
// strided level. Every amplitude sees the same update sequence, in the
// same level order, as a gather → rxTile → scatter walk, so the results
// are bit-identical to it (mixer_rows_test.go keeps that walk as the
// oracle).
//
// With cost non-nil (tables whose entry i belongs to amps[i]) the
// sweep also returns Σ|a|²·D over the rows it just stored, read back
// while they are cache-resident in (row, column) order; with cost nil
// it returns 0.
func rxHighSweep(amps, scratch []complex128, cost *CostTables, g0, m, start, end int, c, sn float64) float64 {
	tl := 1 << uint(m)
	stride := 1 << uint(g0)
	mask := stride - 1
	bb := scratch[:tl*highBatch]
	half := len(bb) / 2
	acc := 0.0
	for u := start; u < end; u++ {
		t := u * highBatch
		// Insert m zero bits at position g0 of the tile counter.
		base := (t&^mask)<<uint(m) | t&mask
		rows := amps[base:]
		if tl == 2 {
			rxRows(rows, stride, rows, stride, 2, 1, c, sn)
		} else {
			rxRows(bb, highBatch, rows, stride, tl, 1, c, sn)
			if tl >= 8 {
				rxTile(bb[:half], 2*highBatch, c, sn)
				rxTile(bb[half:], 2*highBatch, c, sn)
			}
			rxRows(rows, stride, bb, highBatch, tl, tl/2, c, sn)
		}
		if cost != nil {
			p := base
			for v := 0; v < tl; v++ {
				acc = cost.fold(acc, amps[p:p+highBatch], p)
				p += stride
			}
		}
	}
	return acc
}

// parForTiles is parFor for sweeps whose work items are tiles of
// tileLen amplitudes each: the parallelism threshold is still counted
// in amplitudes.
func (s *State) parForTiles(tiles, tileLen int, body func(start, end int)) {
	p := s.kernelPool()
	if p == nil || tiles*tileLen < parallelThreshold {
		body(0, tiles)
		return
	}
	var wg sync.WaitGroup
	p.run(tiles, func(_, start, end int) { body(start, end) }, &wg)
}

// rxTile applies the butterfly levels h = h0, 2·h0, ..., len(buf)/2 of
// the network RX(θ)^⊗log2(len(buf)) to a cache-resident tile. h0 = 1 is
// the full network; h0 = k·highBatch treats buf as rows of highBatch
// interleaved tiles and starts at the level pairing row v with row
// v+k. len(buf) and h0 must be powers of two, len(buf) ≥ 2·h0;
// c = cos(θ/2), sn = sin(θ/2).
func rxTile(buf []complex128, h0 int, c, sn float64) {
	if useMixerAsm {
		// The AVX-512 tier nests UNDER useMixerAsm so one flag still
		// disables all assembly; tiles under two ZMM registers stay on
		// the AVX2 kernel.
		if useMixerAsm512 && len(buf) >= 8 {
			rxTileAsm512(&buf[0], len(buf), h0, c, sn)
		} else {
			rxTileAsm(&buf[0], len(buf), h0, c, sn)
		}
		return
	}
	rxTileGo(buf, h0, c, sn)
}

// rxRows applies ONE butterfly level to rows of highBatch amplitudes:
// row v (v&d == 0) pairs with row v+d, row v of src starting at
// src[v·srcStride] and its result going to dst[v·dstStride] (strides in
// amplitudes). dst and src may be the same slice with the same stride —
// each pair is read before it is written. rows is a multiple of 2·d.
// The per-amplitude arithmetic is rxTile's in every kernel tier.
func rxRows(dst []complex128, dstStride int, src []complex128, srcStride int, rows, d int, c, sn float64) {
	// The assembly kernels index raw pointers: prove the last row fits.
	_ = dst[(rows-1)*dstStride+highBatch-1]
	_ = src[(rows-1)*srcStride+highBatch-1]
	if useMixerAsm {
		if useMixerAsm512 {
			rxRowsAsm512(&dst[0], &src[0], dstStride*16, srcStride*16, rows, d, c, sn)
		} else {
			rxRowsAsm(&dst[0], &src[0], dstStride*16, srcStride*16, rows, d, c, sn)
		}
		return
	}
	rxRowsGo(dst, dstStride, src, srcStride, rows, d, c, sn)
}

// rxMirror applies the butterfly level that pairs fwd[i] with
// rev[len(fwd)−1−i], storing both members in place: the Z2 boundary
// qubit across a mirror tile pair (Engine.runMirrorChunk). Only the
// first len(fwd) entries of rev take part, and they must not overlap
// fwd. The per-amplitude arithmetic is rxTile's in every kernel tier —
// the RX update is the same for either member of a pair, so which one
// sits on the 0 side does not matter.
func rxMirror(fwd, rev []complex128, c, sn float64) {
	rev = rev[:len(fwd)]
	if n := len(fwd) &^ 3; useMixerAsm && n > 0 {
		// The kernels take four pairs a step: fwd's head against rev's
		// tail; the Go kernel pairs what is left in the middle.
		if useMixerAsm512 {
			rxMirrorAsm512(&fwd[0], &rev[len(rev)-n], n, c, sn)
		} else {
			rxMirrorAsm(&fwd[0], &rev[len(rev)-n], n, c, sn)
		}
		fwd, rev = fwd[n:], rev[:len(rev)-n]
	}
	rxMirrorGo(fwd, rev, c, sn)
}

// rxMirrorGo is the portable reversed-partner kernel: rxTileGo's
// butterfly with the partner read back to front.
func rxMirrorGo(fwd, rev []complex128, c, sn float64) {
	last := len(fwd) - 1
	for i := range fwd {
		a0, a1 := fwd[i], rev[last-i]
		fwd[i] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
		rev[last-i] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
	}
}

// phaseIdx is the indexed cost-phase pass over one tile:
// buf[i] = ph[idx[i]] when load (the first layer, whose phase table
// carries the |+⟩ amplitude), buf[i] *= ph[idx[i]] otherwise. idx is at
// least as long as buf, and every entry must index ph: the assembly
// tiers read the table through raw pointers, so the engine checks its
// index once, at construction (NewEngine). No tier fuses the product,
// so every tier gives the portable kernel's bits.
func phaseIdx(buf, ph []complex128, idx []int32, load bool) {
	idx = idx[:len(buf)]
	if n := len(buf) &^ 3; useMixerAsm && n > 0 {
		if useMixerAsm512 {
			phaseIdxAsm512(&buf[0], &ph[0], &idx[0], n, load)
		} else {
			phaseIdxAsm(&buf[0], &ph[0], &idx[0], n, load)
		}
		buf, idx = buf[n:], idx[n:]
	}
	phaseIdxGo(buf, ph, idx, load)
}

// phaseIdxGo is the portable indexed phase kernel.
func phaseIdxGo(buf, ph []complex128, idx []int32, load bool) {
	if load {
		for i := range buf {
			buf[i] = ph[idx[i]]
		}
		return
	}
	for i := range buf {
		buf[i] *= ph[idx[i]]
	}
}

// rxRowsGo is the portable row kernel: rxTileGo's butterfly with
// separate source and destination rows.
func rxRowsGo(dst []complex128, dstStride int, src []complex128, srcStride int, rows, d int, c, sn float64) {
	for a := 0; a < rows; a += d << 1 {
		for b := a; b < a+d; b++ {
			s0 := src[b*srcStride : b*srcStride+highBatch]
			s1 := src[(b+d)*srcStride : (b+d)*srcStride+highBatch]
			d0 := dst[b*dstStride : b*dstStride+highBatch]
			d1 := dst[(b+d)*dstStride : (b+d)*dstStride+highBatch]
			for j := range s0 {
				a0, a1 := s0[j], s1[j]
				d0[j] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
				d1[j] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
			}
		}
	}
}

// KernelTier reports the active rxTile implementation tier: "avx512",
// "avx2" or "portable". The tier is fixed at process start from CPUID/
// XGETBV detection and the QAOA2_NOASM / QAOA2_NOAVX512 opt-outs; bench
// provenance (maxcutbench -cpufeatures, the bench machine-class block)
// records it so results from different kernel tiers never gate against
// each other.
func KernelTier() string {
	switch {
	case useMixerAsm && useMixerAsm512:
		return "avx512"
	case useMixerAsm:
		return "avx2"
	default:
		return "portable"
	}
}

// rxTileGo is the portable tile kernel: level h pairs (b, b+h); each
// butterfly is the same 4-multiply RX update as ApplyRX.
func rxTileGo(buf []complex128, h0 int, c, sn float64) {
	n := len(buf)
	if h0 == 1 {
		for i := 0; i+1 < n; i += 2 {
			a0, a1 := buf[i], buf[i+1]
			buf[i] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
			buf[i+1] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
		}
		h0 = 2
	}
	for h := h0; h < n; h <<= 1 {
		for a := 0; a < n; a += h << 1 {
			for b := a; b < a+h; b++ {
				a0, a1 := buf[b], buf[b+h]
				buf[b] = complex(c*real(a0)+sn*imag(a1), c*imag(a0)-sn*real(a1))
				buf[b+h] = complex(sn*imag(a0)+c*real(a1), c*imag(a1)-sn*real(a0))
			}
		}
	}
}
