//go:build amd64

package qsim

import "os"

// rxTileAsm is the AVX2+FMA butterfly-network tile kernel
// (mixer_amd64.s). buf must hold n complex128 values; n and h0 are
// powers of two with n ≥ 2·h0. Callers must have checked useMixerAsm.
//
//go:noescape
func rxTileAsm(buf *complex128, n, h0 int, c, sn float64)

// rxTileAsm512 is the AVX-512F butterfly-network tile kernel
// (mixer_avx512_amd64.s). Same contract as rxTileAsm plus n ≥ 8 (two
// ZMM registers). Callers must have checked useMixerAsm512.
//
//go:noescape
func rxTileAsm512(buf *complex128, n, h0 int, c, sn float64)

// rxRowsAsm is the AVX2+FMA single-level row kernel (mixer_amd64.s):
// the contract of rxRows with strides in BYTES. Callers must have
// checked useMixerAsm.
//
//go:noescape
func rxRowsAsm(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64)

// rxRowsAsm512 is the AVX-512F single-level row kernel
// (mixer_avx512_amd64.s); same contract as rxRowsAsm. Callers must have
// checked useMixerAsm512.
//
//go:noescape
func rxRowsAsm512(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64)

// rxMirrorAsm is the AVX2+FMA reversed-partner kernel (mixer_amd64.s):
// the contract of rxMirror for n a multiple of 4. Callers must have
// checked useMixerAsm.
//
//go:noescape
func rxMirrorAsm(fwd, rev *complex128, n int, c, sn float64)

// rxMirrorAsm512 is the AVX-512F reversed-partner kernel
// (mixer_avx512_amd64.s); same contract as rxMirrorAsm. Callers must
// have checked useMixerAsm512.
//
//go:noescape
func rxMirrorAsm512(fwd, rev *complex128, n int, c, sn float64)

// phaseIdxAsm is the AVX2 indexed phase kernel (mixer_amd64.s): the
// contract of phaseIdx for n a multiple of 4. It reads ph[idx[i]]
// without a bounds check. Callers must have checked useMixerAsm.
//
//go:noescape
func phaseIdxAsm(buf, ph *complex128, idx *int32, n int, load bool)

// phaseIdxAsm512 is the AVX-512F indexed phase kernel
// (mixer_avx512_amd64.s); same contract as phaseIdxAsm. Callers must
// have checked useMixerAsm512.
//
//go:noescape
func phaseIdxAsm512(buf, ph *complex128, idx *int32, n int, load bool)

// The assembly row kernels hard-code 8-amplitude (128-byte) rows.
var _ = [1]struct{}{}[highBatch-8]

// cpuidex executes CPUID with the given leaf/sub-leaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled SIMD state).
func xgetbv0() (eax, edx uint32)

// useMixerAsm gates the assembly tile kernel: the CPU must have AVX2 and
// FMA and the OS must save YMM state. QAOA2_NOASM=1 forces the portable
// Go kernel (debugging, fallback-path benchmarking); tests flip the
// variable directly to cover both paths.
var useMixerAsm = detectAVX2FMA() && os.Getenv("QAOA2_NOASM") == ""

// useMixerAsm512 further widens the tile kernel to ZMM registers where
// the CPU has AVX-512F and the OS saves the full ZMM + opmask state.
// It is only consulted UNDER useMixerAsm (rxTile), so QAOA2_NOASM=1
// still disables all assembly; QAOA2_NOAVX512=1 drops just this tier
// (back to AVX2+FMA) for downclocking-sensitive deployments and A/B
// benchmarking. Tests flip the variable directly.
var useMixerAsm512 = detectAVX512() && os.Getenv("QAOA2_NOASM") == "" &&
	os.Getenv("QAOA2_NOAVX512") == ""

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xeax, _ := xgetbv0()
	if xeax&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func detectAVX512() bool {
	// The AVX2+FMA base (incl. OSXSAVE) is a prerequisite: the 512-bit
	// kernel is only ever dispatched under useMixerAsm.
	if !detectAVX2FMA() {
		return false
	}
	// XCR0 must show the OS saving SSE+AVX (bits 1–2) AND the AVX-512
	// state triple: opmask, ZMM upper halves, high-16 ZMM (bits 5–7).
	xeax, _ := xgetbv0()
	if xeax&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx512fBit = 1 << 16
	return ebx7&avx512fBit != 0
}
