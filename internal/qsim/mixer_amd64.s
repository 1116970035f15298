// AVX2+FMA kernels for the blocked QAOA mixer (mixer.go): the tile
// network rxTileAsm, the row level rxRowsAsm, the reversed-partner
// level rxMirrorAsm and the indexed phase pass phaseIdxAsm.
//
// rxTileAsm applies the butterfly network RX(θ)^⊗log2(n) to a
// contiguous tile of n complex128 amplitudes. A butterfly on the pair
// (a0, a1) with c = cos(θ/2), s = sin(θ/2) is
//
//	a0' = (c·Re a0 + s·Im a1,  c·Im a0 − s·Re a1)
//	a1' = (s·Im a0 + c·Re a1,  c·Im a1 − s·Re a0)
//
// i.e. a0' = c·a0 + σ⊙swap(a1) and a1' = c·a1 + σ⊙swap(a0), where
// swap exchanges the real/imaginary doubles of a complex and
// σ = (+s, −s). One YMM register holds two complex128 values, so the
// level-h ≥ 2 loop processes two butterflies with two VPERMILPD swaps,
// two VMULPD and two VFMADD231PD; the level-1 loop (adjacent pairs
// inside one register) uses a single full-lane reversal (VPERMPD 0x1B)
// instead, because swap(a1)‖swap(a0) of an adjacent pair IS the
// reversed register.
//
// Tiles are at most 2^lowBlockQubits = 1024 amplitudes (≈5 k butterfly
// updates), so each call is a short, bounded burst between preemption
// points.

#include "textflag.h"

// σ sign mask: (+0.0, −0.0, +0.0, −0.0) — XORed onto broadcast s.
DATA rxsign<>+0(SB)/8, $0x0000000000000000
DATA rxsign<>+8(SB)/8, $0x8000000000000000
DATA rxsign<>+16(SB)/8, $0x0000000000000000
DATA rxsign<>+24(SB)/8, $0x8000000000000000
GLOBL rxsign<>(SB), RODATA|NOPTR, $32

// func rxTileAsm(buf *complex128, n, h0 int, c, sn float64)
// Applies butterfly levels h = h0, 2·h0, ..., n/2 (h0 = 1 is the full
// network; larger powers of two skip the low levels — see rxTile).
TEXT ·rxTileAsm(SB), NOSPLIT, $0-40
	MOVQ buf+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ h0+16(FP), R9             // first level h
	VBROADCASTSD c+24(FP), Y0      // Y0 = (c, c, c, c)
	VBROADCASTSD sn+32(FP), Y1
	VXORPD rxsign<>(SB), Y1, Y1    // Y1 = σ = (s, −s, s, −s)

	MOVQ SI, R15
	SHLQ $4, R15
	ADDQ DI, R15                   // end pointer

	CMPQ R9, $1
	JNE  lvlh                      // h0 ≥ 2: straight to the strided loop

	// ---- level h = 1: adjacent pairs, one YMM per butterfly ----
	MOVQ DI, R8
	MOVQ SI, CX
	SHRQ $1, CX                    // n/2 iterations
lvl1:
	VMOVUPD (R8), Y3               // (re0, im0, re1, im1)
	VPERMPD $0x1B, Y3, Y4          // (im1, re1, im0, re0)
	VMULPD  Y0, Y3, Y5             // c·v
	VFMADD231PD Y1, Y4, Y5         // + σ⊙rev(v)
	VMOVUPD Y5, (R8)
	ADDQ $32, R8
	DECQ CX
	JNZ  lvl1
	MOVQ $2, R9                    // continue with h = 2

	// ---- levels h = h0|2, 2h, ..., n/2 ----
lvlh:
	CMPQ R9, SI
	JGE  done
	MOVQ R9, R10
	SHLQ $4, R10                   // h in bytes
	MOVQ DI, R11                   // a-block base pointer
outer:
	MOVQ R11, R13                  // b pointer
	MOVQ R9, CX
	SHRQ $1, CX                    // h/2 iterations of 2 butterflies
inner:
	VMOVUPD (R13), Y3              // v0 = (buf[b], buf[b+1])
	VMOVUPD (R13)(R10*1), Y4       // v1 = (buf[b+h], buf[b+h+1])
	VPERMILPD $0x5, Y3, Y5         // swap re/im within each complex
	VPERMILPD $0x5, Y4, Y6
	VMULPD  Y0, Y3, Y7             // c·v0
	VFMADD231PD Y1, Y6, Y7         // + σ⊙swap(v1)
	VMULPD  Y0, Y4, Y8             // c·v1
	VFMADD231PD Y1, Y5, Y8         // + σ⊙swap(v0)
	VMOVUPD Y7, (R13)
	VMOVUPD Y8, (R13)(R10*1)
	ADDQ $32, R13
	DECQ CX
	JNZ  inner
	LEAQ (R11)(R10*2), R11         // next a-block (step 2h)
	CMPQ R11, R15
	JL   outer
	SHLQ $1, R9
	JMP  lvlh
done:
	VZEROUPPER
	RET

// ROWPAIR butterflies two complexes of row v (off(SI)) with the two at
// the same offset of row v+d (off(SI)(R13)), writing off(DI) and
// off(DI)(R12): the inner-loop body of rxTileAsm with separate source
// and destination.
#define ROWPAIR(off) \
	VMOVUPD off(SI), Y3            \
	VMOVUPD off(SI)(R13*1), Y4     \
	VPERMILPD $0x5, Y3, Y5         \
	VPERMILPD $0x5, Y4, Y6         \
	VMULPD  Y0, Y3, Y7             \
	VFMADD231PD Y1, Y6, Y7         \
	VMULPD  Y0, Y4, Y8             \
	VFMADD231PD Y1, Y5, Y8         \
	VMOVUPD Y7, off(DI)            \
	VMOVUPD Y8, off(DI)(R12*1)

// func rxRowsAsm(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64)
// One butterfly level over rows of highBatch = 8 amplitudes (four YMM
// registers): row v pairs with row v+d, source rows sit srcStride bytes
// apart and destination rows dstStride bytes apart (dst == src with
// equal strides is the in-place form). Same update as rxTileAsm's
// level-h loop, so a level run here is bit-identical to the same level
// run by rxTileAsm on a gathered copy. rows is a multiple of 2·d.
TEXT ·rxRowsAsm(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), R8
	MOVQ srcStride+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ d+40(FP), R11
	VBROADCASTSD c+48(FP), Y0      // Y0 = (c, c, c, c)
	VBROADCASTSD sn+56(FP), Y1
	VXORPD rxsign<>(SB), Y1, Y1    // Y1 = σ = (s, −s, s, −s)

	MOVQ R11, R12
	IMULQ R8, R12                  // partner row offset in dst
	MOVQ R11, R13
	IMULQ R9, R13                  // partner row offset in src
	LEAQ (R11)(R11*1), BX          // rows per block: 2·d
rowblock:
	MOVQ R11, CX                   // d row pairs per block
rowpair:
	ROWPAIR(0)
	ROWPAIR(32)
	ROWPAIR(64)
	ROWPAIR(96)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  rowpair
	ADDQ R13, SI                   // skip the partner half of the block
	ADDQ R12, DI
	SUBQ BX, R10
	JG   rowblock
	VZEROUPPER
	RET

// func rxMirrorAsm(fwd, rev *complex128, n int, c, sn float64)
// The reversed-partner level (the Z2 boundary, rxMirror): fwd[i] pairs
// with rev[n−1−i], both stored in place. Four pairs per iteration: fwd
// is walked front to back and rev back to front, 64 bytes at a time.
// Reversing a YMM register's four doubles reverses its two complexes
// AND swaps re/im inside each, so one VPERMPD $0x1B lines the partner
// up as swap(partner) — the same c·v + σ⊙swap(partner) update as the
// level-h loop of rxTileAsm. n is a multiple of 4.
TEXT ·rxMirrorAsm(SB), NOSPLIT, $0-40
	MOVQ fwd+0(FP), DI
	MOVQ rev+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD c+24(FP), Y0      // Y0 = (c, c, c, c)
	VBROADCASTSD sn+32(FP), Y1
	VXORPD rxsign<>(SB), Y1, Y1    // Y1 = σ = (s, −s, s, −s)
	MOVQ CX, R8
	SHLQ $4, R8
	LEAQ -64(SI)(R8*1), SI         // rev[n−4 : n]
	SHRQ $2, CX                    // n/4 iterations
mirror:
	VMOVUPD (DI), Y2               // fwd[i], fwd[i+1]
	VMOVUPD 32(DI), Y3             // fwd[i+2], fwd[i+3]
	VMOVUPD (SI), Y4               // rev[n−4−i], rev[n−3−i]
	VMOVUPD 32(SI), Y5             // rev[n−2−i], rev[n−1−i]
	VPERMPD $0x1B, Y5, Y6          // partners of Y2, swapped
	VPERMPD $0x1B, Y4, Y7          // partners of Y3
	VPERMPD $0x1B, Y2, Y8          // partners of Y5
	VPERMPD $0x1B, Y3, Y9          // partners of Y4
	VMULPD  Y0, Y2, Y10            // c·v
	VFMADD231PD Y1, Y6, Y10        // + σ⊙swap(partner)
	VMULPD  Y0, Y3, Y11
	VFMADD231PD Y1, Y7, Y11
	VMULPD  Y0, Y4, Y12
	VFMADD231PD Y1, Y9, Y12
	VMULPD  Y0, Y5, Y13
	VFMADD231PD Y1, Y8, Y13
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, 32(DI)
	VMOVUPD Y12, (SI)
	VMOVUPD Y13, 32(SI)
	ADDQ $64, DI
	SUBQ $64, SI
	DECQ CX
	JNZ  mirror
	VZEROUPPER
	RET

// PHASES4 gathers ph[idx[i]], ..., ph[idx[i+3]] (idx at SI, ph at R8)
// into Y2 (the first two) and Y3, one 16-byte load per phase.
#define PHASES4 \
	MOVL (SI), AX                      \
	MOVL 4(SI), BX                     \
	MOVL 8(SI), R10                    \
	MOVL 12(SI), R11                   \
	SHLQ $4, AX                        \
	SHLQ $4, BX                        \
	SHLQ $4, R10                       \
	SHLQ $4, R11                       \
	VMOVUPD (R8)(AX*1), X2             \
	VINSERTF128 $1, (R8)(BX*1), Y2, Y2 \
	VMOVUPD (R8)(R10*1), X3            \
	VINSERTF128 $1, (R8)(R11*1), Y3, Y3

// PHASE2(p) multiplies the two amplitudes in Y4 by the two phases in p
// without fusing, in the order Go compiles a complex128 product:
// Y5 = (re·re′, im·re′) from the duplicated real parts of the phases,
// Y6 = (im·im′, re·im′) from the swapped amplitudes and the duplicated
// imaginary parts, and VADDSUBPD subtracts in the real lanes and adds
// in the imaginary ones: (re·re′ − im·im′, im·re′ + re·im′).
#define PHASE2(p) \
	VMOVDDUP p, Y5                 \
	VPERMILPD $0xF, p, Y6          \
	VPERMILPD $0x5, Y4, Y7         \
	VMULPD  Y5, Y4, Y5             \
	VMULPD  Y6, Y7, Y6             \
	VADDSUBPD Y6, Y5, Y4

// func phaseIdxAsm(buf, ph *complex128, idx *int32, n int, load bool)
// The indexed phase pass (phaseIdx): buf[i] = ph[idx[i]] when load,
// buf[i] *= ph[idx[i]] otherwise. Four amplitudes per iteration; idx
// entries must be valid indices into ph (NewEngine checks them). n is
// a multiple of 4.
TEXT ·phaseIdxAsm(SB), NOSPLIT, $0-33
	MOVQ buf+0(FP), DI
	MOVQ ph+8(FP), R8
	MOVQ idx+16(FP), SI
	MOVQ n+24(FP), CX
	SHRQ $2, CX                    // n/4 iterations
	MOVBLZX load+32(FP), R9
	TESTL R9, R9
	JZ   phasemul
phaseload:
	PHASES4
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ $16, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  phaseload
	VZEROUPPER
	RET
phasemul:
	PHASES4
	VMOVUPD (DI), Y4
	PHASE2(Y2)
	VMOVUPD Y4, (DI)
	VMOVUPD 32(DI), Y4
	PHASE2(Y3)
	VMOVUPD Y4, 32(DI)
	ADDQ $16, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  phasemul
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
