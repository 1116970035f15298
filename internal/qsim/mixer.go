package qsim

import "math"

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
// Five kernels carry all of it, each in three tiers — AVX-512F,
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
//     lives, the engine's phase-on-load;
//   - indexMax takes the largest entry of a level index, NewEngine's
//     one check that phaseIdx will read inside its table.
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
	s.sweep(tiles, tl, func(_, start, end int) {
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
	s.sweep(batches, highBatch<<uint(m), func(_, start, end int) {
		rxHighSweep(amps, make([]complex128, highBufLen), nil, nil, nil, g0, m, start, end, c, sn)
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
// aligned — see fitScratch); the middle levels run in scratch
// through rxTile, one call per half because the last level is held
// back; the last level (d = 2^(m−1)) reads scratch and stores straight
// back to the strided rows. A one-qubit group is a single in-place
// strided level. Every amplitude sees the same update sequence, in the
// same level order, as a gather → rxTile → scatter walk, so the results
// are bit-identical to it (mixer_rows_test.go keeps that walk as the
// oracle).
//
// With cost non-nil (tables whose entry i belongs to amps[i]) the
// sweep also writes Σ|a|²·D over batch u's rows into sums[u], read back
// in (row, column) order while the rows are cache-resident, and the
// largest |a|² among them into peaks[u] — the batch peak a decode
// filters on (State.peaks); one slot of each per batch, so how a caller
// splits the batches between workers cannot change a bit of any of
// them. With cost nil, sums and peaks are not touched.
func rxHighSweep(amps, scratch []complex128, cost *CostTables, sums, peaks []float64, g0, m, start, end int, c, sn float64) {
	tl := 1 << uint(m)
	stride := 1 << uint(g0)
	mask := stride - 1
	bb := scratch[:tl*highBatch]
	half := len(bb) / 2
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
			acc, peak := 0.0, uint64(0)
			for p := base; p < base+tl*stride; p += stride {
				acc, peak = cost.fold(acc, peak, amps[p:p+highBatch], p)
			}
			sums[u], peaks[u] = acc, math.Float64frombits(peak)
		}
	}
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
