//go:build amd64

package qsim

// rxTileAsm is the AVX2+FMA butterfly-network tile kernel
// (mixer_amd64.s). buf must hold n complex128 values; n and h0 are
// powers of two with n ≥ 2·h0. Dispatched from tierAVX2 up.
//
//go:noescape
func rxTileAsm(buf *complex128, n, h0 int, c, sn float64)

// rxTileAsm512 is the AVX-512F butterfly-network tile kernel
// (mixer_avx512_amd64.s). Same contract as rxTileAsm plus n ≥ 8 (two
// ZMM registers). Dispatched only at tierAVX512.
//
//go:noescape
func rxTileAsm512(buf *complex128, n, h0 int, c, sn float64)

// rxRowsAsm is the AVX2+FMA single-level row kernel (mixer_amd64.s):
// the contract of rxRows with strides in BYTES. Dispatched only at
// tierAVX2.
//
//go:noescape
func rxRowsAsm(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64)

// rxRowsAsm512 is the AVX-512F single-level row kernel
// (mixer_avx512_amd64.s); same contract as rxRowsAsm. Dispatched only at
// tierAVX512.
//
//go:noescape
func rxRowsAsm512(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64)

// rxMirrorAsm is the AVX2+FMA reversed-partner kernel (mixer_amd64.s):
// the contract of rxMirror for n a multiple of 4. Dispatched only at
// tierAVX2.
//
//go:noescape
func rxMirrorAsm(fwd, rev *complex128, n int, c, sn float64)

// rxMirrorAsm512 is the AVX-512F reversed-partner kernel
// (mixer_avx512_amd64.s); same contract as rxMirrorAsm. Dispatched only
// at tierAVX512.
//
//go:noescape
func rxMirrorAsm512(fwd, rev *complex128, n int, c, sn float64)

// phaseIdxAsm is the AVX2 indexed phase kernel (mixer_amd64.s): the
// contract of phaseIdx for n a multiple of 4. It reads ph[idx[i]]
// without a bounds check. Dispatched only at tierAVX2.
//
//go:noescape
func phaseIdxAsm(buf, ph *complex128, idx *int32, n int, load bool)

// phaseIdxAsm512 is the AVX-512F indexed phase kernel
// (mixer_avx512_amd64.s); same contract as phaseIdxAsm. Dispatched only
// at tierAVX512.
//
//go:noescape
func phaseIdxAsm512(buf, ph *complex128, idx *int32, n int, load bool)

// indexMaxAsm is the AVX2 index check (mixer_amd64.s): the largest of
// idx[:n] read as uint32, n a multiple of 32. Dispatched from tierAVX2
// up.
//
//go:noescape
func indexMaxAsm(idx *int32, n int) uint32

// indexMaxAsm512 is the AVX-512F index check (mixer_avx512_amd64.s);
// same contract as indexMaxAsm for n a multiple of 64. Dispatched only
// at tierAVX512.
//
//go:noescape
func indexMaxAsm512(idx *int32, n int) uint32

// The assembly row kernels hard-code 8-amplitude (128-byte) rows.
var _ = [1]struct{}{}[highBatch-8]

// cpuidex executes CPUID with the given leaf/sub-leaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled SIMD state).
func xgetbv0() (eax, edx uint32)

// detectTier reads the highest tier the CPU and OS support: AVX2 needs
// AVX2, FMA and the OS saving YMM state; AVX-512 adds AVX-512F and the
// OS saving the opmask and full ZMM state.
func detectTier() kernelTier {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return tierPortable
	}
	// XGETBV faults unless OSXSAVE is set, so test it before reading XCR0.
	_, _, ecx1, _ := cpuidex(1, 0)
	const fmaOSXSaveAVX = 1<<12 | 1<<27 | 1<<28
	if ecx1&fmaOSXSaveAVX != fmaOSXSaveAVX {
		return tierPortable
	}
	xcr0, _ := xgetbv0()
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	if xcr0&0x6 != 0x6 || ebx7&avx2Bit == 0 {
		return tierPortable
	}
	// XCR0 bits 5–7: opmask, ZMM upper halves, high-16 ZMM.
	if xcr0&0xe0 != 0xe0 || ebx7&avx512fBit == 0 {
		return tierAVX2
	}
	return tierAVX512
}

// rxTile applies the butterfly levels h = h0, 2·h0, ..., len(buf)/2 of
// the network RX(θ)^⊗log2(len(buf)) to a cache-resident tile. h0 = 1 is
// the full network; h0 = k·highBatch treats buf as rows of highBatch
// interleaved tiles and starts at the level pairing row v with row
// v+k. len(buf) and h0 must be powers of two, len(buf) ≥ 2·h0;
// c = cos(θ/2), sn = sin(θ/2). Tiles under two ZMM registers take the
// AVX2 kernel in the AVX-512 tier.
func rxTile(buf []complex128, h0 int, c, sn float64) {
	if activeTier == tierAVX512 && len(buf) >= 8 {
		rxTileAsm512(&buf[0], len(buf), h0, c, sn)
	} else if activeTier >= tierAVX2 {
		rxTileAsm(&buf[0], len(buf), h0, c, sn)
	} else {
		rxTileGo(buf, h0, c, sn)
	}
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
	if activeTier == tierAVX512 {
		rxRowsAsm512(&dst[0], &src[0], dstStride*16, srcStride*16, rows, d, c, sn)
	} else if activeTier == tierAVX2 {
		rxRowsAsm(&dst[0], &src[0], dstStride*16, srcStride*16, rows, d, c, sn)
	} else {
		rxRowsGo(dst, dstStride, src, srcStride, rows, d, c, sn)
	}
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
	if n := len(fwd) &^ 3; activeTier >= tierAVX2 && n > 0 {
		// The kernels take four pairs a step: fwd's head against rev's
		// tail; the Go kernel pairs what is left in the middle.
		if activeTier == tierAVX512 {
			rxMirrorAsm512(&fwd[0], &rev[len(rev)-n], n, c, sn)
		} else {
			rxMirrorAsm(&fwd[0], &rev[len(rev)-n], n, c, sn)
		}
		fwd, rev = fwd[n:], rev[:len(rev)-n]
	}
	rxMirrorGo(fwd, rev, c, sn)
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
	if n := len(buf) &^ 3; activeTier >= tierAVX2 && n > 0 {
		if activeTier == tierAVX512 {
			phaseIdxAsm512(&buf[0], &ph[0], &idx[0], n, load)
		} else {
			phaseIdxAsm(&buf[0], &ph[0], &idx[0], n, load)
		}
		buf, idx = buf[n:], idx[n:]
	}
	phaseIdxGo(buf, ph, idx, load)
}

// indexMax returns the largest entry of a level index read as uint32,
// so a negative entry ranks above every level (0 when idx is empty):
// NewEngine's one compare for the whole index. The kernels take the
// longest prefix of whole steps, the portable loop the rest.
func indexMax(idx []int32) uint32 {
	var m uint32
	if n := len(idx) &^ 63; activeTier == tierAVX512 && n > 0 {
		m, idx = indexMaxAsm512(&idx[0], n), idx[n:]
	} else if n := len(idx) &^ 31; activeTier >= tierAVX2 && n > 0 {
		m, idx = indexMaxAsm(&idx[0], n), idx[n:]
	}
	return max(m, indexMaxGo(idx))
}
