// AVX-512F kernels for the blocked QAOA mixer (mixer.go) — the wide
// siblings of the AVX2 kernels (mixer_amd64.s): the tile network
// rxTileAsm512, the row level rxRowsAsm512, the reversed-partner level
// rxMirrorAsm512 and the indexed phase pass phaseIdxAsm512.
//
// In the tile network one ZMM register holds FOUR complex128
// amplitudes, so each register load covers TWO butterfly levels:
//
//   - level h = 1 pairs adjacent complexes inside each 256-bit half;
//     VPERMPD $0x1B permutes 64-bit elements within each 256-bit lane
//     independently, turning (a0,a1 ‖ a2,a3) into
//     (swap(a1),swap(a0) ‖ swap(a3),swap(a2)) in one instruction.
//   - level h = 2 pairs complex 0↔2 and 1↔3, i.e. swaps the register's
//     256-bit halves: VSHUFF64X2 $0x4E rotates the four 128-bit chunks
//     by two, then VPERMILPD $0x55 swaps re/im within every complex.
//
// Both butterfly members share the same update new = c·v + σ⊙swap(v'),
// σ = (s, −s, …), so levels fuse into straight FMA chains with no
// blends. Levels h ≥ 4 span whole registers and use the classic
// two-pointer strided loop (as in the AVX2 kernel) at twice the width.
//
// Entry dispatch on h0 ∈ {1, 2, ≥4} mirrors rxTile's contract; callers
// gate on len(buf) ≥ 8 (two ZMM registers) — smaller tiles stay on the
// AVX2 kernel.

#include "textflag.h"

// σ sign mask: (+0.0, −0.0) × 4 — XORed onto broadcast s.
DATA rxsign512<>+0(SB)/8, $0x0000000000000000
DATA rxsign512<>+8(SB)/8, $0x8000000000000000
DATA rxsign512<>+16(SB)/8, $0x0000000000000000
DATA rxsign512<>+24(SB)/8, $0x8000000000000000
DATA rxsign512<>+32(SB)/8, $0x0000000000000000
DATA rxsign512<>+40(SB)/8, $0x8000000000000000
DATA rxsign512<>+48(SB)/8, $0x0000000000000000
DATA rxsign512<>+56(SB)/8, $0x8000000000000000
GLOBL rxsign512<>(SB), RODATA|NOPTR, $64

// func rxTileAsm512(buf *complex128, n, h0 int, c, sn float64)
// Applies butterfly levels h = h0, 2·h0, ..., n/2. Requirements as
// rxTileAsm, plus n ≥ 8.
TEXT ·rxTileAsm512(SB), NOSPLIT, $0-40
	MOVQ buf+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ h0+16(FP), R9                // first level h
	VBROADCASTSD c+24(FP), Z0         // Z0 = (c, ..., c)
	VBROADCASTSD sn+32(FP), Z1
	VPXORQ rxsign512<>(SB), Z1, Z1    // Z1 = σ = (s, −s, s, −s, ...)

	MOVQ SI, R15
	SHLQ $4, R15
	ADDQ DI, R15                      // end pointer

	CMPQ R9, $1
	JE   lvl12
	CMPQ R9, $2
	JE   lvl2
	JMP  lvlh

	// ---- fused levels h = 1 and h = 2: one load per register ----
lvl12:
	MOVQ DI, R8
	MOVQ SI, CX
	SHRQ $2, CX                       // n/4 registers
fused:
	VMOVUPD (R8), Z3                  // (a0, a1, a2, a3)
	VPERMPD $0x1B, Z3, Z4             // per-256-lane reversal
	VMULPD  Z0, Z3, Z5                // c·v
	VFMADD231PD Z1, Z4, Z5            // + σ⊙swap(partner): level 1 done
	VSHUFF64X2 $0x4E, Z5, Z5, Z6      // rotate halves: (a2, a3, a0, a1)
	VPERMILPD $0x55, Z6, Z6           // swap re/im in every complex
	VMULPD  Z0, Z5, Z7                // c·v
	VFMADD231PD Z1, Z6, Z7            // + σ⊙swap(partner): level 2 done
	VMOVUPD Z7, (R8)
	ADDQ $64, R8
	DECQ CX
	JNZ  fused
	MOVQ $4, R9                       // continue with h = 4
	JMP  lvlh

	// ---- level h = 2 alone (h0 = 2 entry) ----
lvl2:
	MOVQ DI, R8
	MOVQ SI, CX
	SHRQ $2, CX
l2loop:
	VMOVUPD (R8), Z3
	VSHUFF64X2 $0x4E, Z3, Z3, Z6
	VPERMILPD $0x55, Z6, Z6
	VMULPD  Z0, Z3, Z7
	VFMADD231PD Z1, Z6, Z7
	VMOVUPD Z7, (R8)
	ADDQ $64, R8
	DECQ CX
	JNZ  l2loop
	MOVQ $4, R9

	// ---- levels h = max(h0, 4), 2h, ..., n/2 ----
lvlh:
	CMPQ R9, SI
	JGE  done
	MOVQ R9, R10
	SHLQ $4, R10                      // h in bytes
	MOVQ DI, R11                      // a-block base pointer
outer:
	MOVQ R11, R13                     // b pointer
	MOVQ R9, CX
	SHRQ $2, CX                       // h/4 iterations of 4 butterflies
inner:
	VMOVUPD (R13), Z3                 // v0 = buf[b : b+4]
	VMOVUPD (R13)(R10*1), Z4          // v1 = buf[b+h : b+h+4]
	VPERMILPD $0x55, Z3, Z5           // swap re/im within each complex
	VPERMILPD $0x55, Z4, Z6
	VMULPD  Z0, Z3, Z7                // c·v0
	VFMADD231PD Z1, Z6, Z7            // + σ⊙swap(v1)
	VMULPD  Z0, Z4, Z8                // c·v1
	VFMADD231PD Z1, Z5, Z8            // + σ⊙swap(v0)
	VMOVUPD Z7, (R13)
	VMOVUPD Z8, (R13)(R10*1)
	ADDQ $64, R13
	DECQ CX
	JNZ  inner
	LEAQ (R11)(R10*2), R11            // next a-block (step 2h)
	CMPQ R11, R15
	JL   outer
	SHLQ $1, R9
	JMP  lvlh
done:
	VZEROUPPER
	RET

// func rxRowsAsm512(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64)
// One butterfly level over rows of highBatch = 8 amplitudes (two ZMM
// registers): row v pairs with row v+d, source rows sit srcStride bytes
// apart and destination rows dstStride bytes apart (dst == src with
// equal strides is the in-place form). The update is the lvlh loop's
// VMULPD + VFMADD231PD chain, so a level run here is bit-identical to
// the same level run by rxTileAsm512 on a gathered copy. rows is a
// multiple of 2·d.
TEXT ·rxRowsAsm512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ dstStride+16(FP), R8
	MOVQ srcStride+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ d+40(FP), R11
	VBROADCASTSD c+48(FP), Z0         // Z0 = (c, ..., c)
	VBROADCASTSD sn+56(FP), Z1
	VPXORQ rxsign512<>(SB), Z1, Z1    // Z1 = σ = (s, −s, s, −s, ...)

	MOVQ R11, R12
	IMULQ R8, R12                     // partner row offset in dst
	MOVQ R11, R13
	IMULQ R9, R13                     // partner row offset in src
	LEAQ (R11)(R11*1), BX             // rows per block: 2·d
rowblock:
	MOVQ R11, CX                      // d row pairs per block
rowpair:
	VMOVUPD (SI), Z2                  // row v
	VMOVUPD 64(SI), Z3
	VMOVUPD (SI)(R13*1), Z4           // row v+d
	VMOVUPD 64(SI)(R13*1), Z5
	VPERMILPD $0x55, Z2, Z6           // swap re/im within each complex
	VPERMILPD $0x55, Z3, Z7
	VPERMILPD $0x55, Z4, Z8
	VPERMILPD $0x55, Z5, Z9
	VMULPD  Z0, Z2, Z10               // c·v0
	VMULPD  Z0, Z3, Z11
	VMULPD  Z0, Z4, Z12               // c·v1
	VMULPD  Z0, Z5, Z13
	VFMADD231PD Z1, Z8, Z10           // + σ⊙swap(v1)
	VFMADD231PD Z1, Z9, Z11
	VFMADD231PD Z1, Z6, Z12           // + σ⊙swap(v0)
	VFMADD231PD Z1, Z7, Z13
	VMOVUPD Z10, (DI)
	VMOVUPD Z11, 64(DI)
	VMOVUPD Z12, (DI)(R12*1)
	VMOVUPD Z13, 64(DI)(R12*1)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  rowpair
	ADDQ R13, SI                      // skip the partner half of the block
	ADDQ R12, DI
	SUBQ BX, R10
	JG   rowblock
	VZEROUPPER
	RET

// Full reversal of a ZMM register's eight doubles: the four complexes
// in reverse order, re/im swapped inside each.
DATA revpd512<>+0(SB)/8, $7
DATA revpd512<>+8(SB)/8, $6
DATA revpd512<>+16(SB)/8, $5
DATA revpd512<>+24(SB)/8, $4
DATA revpd512<>+32(SB)/8, $3
DATA revpd512<>+40(SB)/8, $2
DATA revpd512<>+48(SB)/8, $1
DATA revpd512<>+56(SB)/8, $0
GLOBL revpd512<>(SB), RODATA|NOPTR, $64

// func rxMirrorAsm512(fwd, rev *complex128, n int, c, sn float64)
// The reversed-partner level (the Z2 boundary, rxMirror): fwd[i] pairs
// with rev[n−1−i], both stored in place. Four pairs per iteration: fwd
// is walked front to back and rev back to front, one ZMM register at a
// time; the full reversal lines each partner up as swap(partner), and
// the update is the lvlh loop's VMULPD + VFMADD231PD chain. n is a
// multiple of 4.
TEXT ·rxMirrorAsm512(SB), NOSPLIT, $0-40
	MOVQ fwd+0(FP), DI
	MOVQ rev+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD c+24(FP), Z0         // Z0 = (c, ..., c)
	VBROADCASTSD sn+32(FP), Z1
	VPXORQ rxsign512<>(SB), Z1, Z1    // Z1 = σ = (s, −s, s, −s, ...)
	VMOVDQU64 revpd512<>(SB), Z2      // reversal indices
	MOVQ CX, R8
	SHLQ $4, R8
	LEAQ -64(SI)(R8*1), SI            // rev[n−4 : n]
	SHRQ $2, CX                       // n/4 iterations
mirror:
	VMOVUPD (DI), Z3                  // fwd[i : i+4]
	VMOVUPD (SI), Z4                  // rev[n−4−i : n−i]
	VPERMPD Z4, Z2, Z6                // partners of Z3, swapped
	VPERMPD Z3, Z2, Z5                // partners of Z4, swapped
	VMULPD  Z0, Z3, Z7                // c·v
	VFMADD231PD Z1, Z6, Z7            // + σ⊙swap(partner)
	VMULPD  Z0, Z4, Z8
	VFMADD231PD Z1, Z5, Z8
	VMOVUPD Z7, (DI)
	VMOVUPD Z8, (SI)
	ADDQ $64, DI
	SUBQ $64, SI
	DECQ CX
	JNZ  mirror
	VZEROUPPER
	RET

// Negates the real lanes: (−0.0, +0.0) × 4.
DATA phsign512<>+0(SB)/8, $0x8000000000000000
DATA phsign512<>+8(SB)/8, $0x0000000000000000
DATA phsign512<>+16(SB)/8, $0x8000000000000000
DATA phsign512<>+24(SB)/8, $0x0000000000000000
DATA phsign512<>+32(SB)/8, $0x8000000000000000
DATA phsign512<>+40(SB)/8, $0x0000000000000000
DATA phsign512<>+48(SB)/8, $0x8000000000000000
DATA phsign512<>+56(SB)/8, $0x0000000000000000
GLOBL phsign512<>(SB), RODATA|NOPTR, $64

// PHASES4 gathers ph[idx[i]], ..., ph[idx[i+3]] (idx at SI, ph at R8)
// into Y2 (the first two) and Y3, one 16-byte load per phase.
#define PHASES4 \
	MOVL (SI), AX                     \
	MOVL 4(SI), BX                    \
	MOVL 8(SI), R10                   \
	MOVL 12(SI), R11                  \
	SHLQ $4, AX                       \
	SHLQ $4, BX                       \
	SHLQ $4, R10                      \
	SHLQ $4, R11                      \
	VMOVUPD (R8)(AX*1), X2            \
	VINSERTF128 $1, (R8)(BX*1), Y2, Y2 \
	VMOVUPD (R8)(R10*1), X3           \
	VINSERTF128 $1, (R8)(R11*1), Y3, Y3

// func phaseIdxAsm512(buf, ph *complex128, idx *int32, n int, load bool)
// The indexed phase pass (phaseIdx): buf[i] = ph[idx[i]] when load,
// buf[i] *= ph[idx[i]] otherwise. Four amplitudes per iteration. The
// product is not fused, and follows the order Go compiles a complex128
// product in: Z5 = (re·re′, im·re′), Z6 = (−im·im′, re·im′), and their
// sum is (re·re′ + (−im·im′), im·re′ + re·im′) — bit for bit Go's
// (re·re′ − im·im′, re·im′ + im·re′). idx entries must be valid
// indices into ph (NewEngine checks them). n is a multiple of 4.
TEXT ·phaseIdxAsm512(SB), NOSPLIT, $0-33
	MOVQ buf+0(FP), DI
	MOVQ ph+8(FP), R8
	MOVQ idx+16(FP), SI
	MOVQ n+24(FP), CX
	SHRQ $2, CX                       // n/4 iterations
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
	VMOVDQU64 phsign512<>(SB), Z9
phaseloop:
	PHASES4
	VINSERTF64X4 $1, Y3, Z2, Z2
	VMOVUPD (DI), Z4
	VMOVDDUP Z2, Z5                   // (re′, re′) per complex
	VPERMILPD $0xFF, Z2, Z6           // (im′, im′)
	VPERMILPD $0x55, Z4, Z7           // (im, re)
	VMULPD  Z5, Z4, Z5                // (re·re′, im·re′)
	VMULPD  Z6, Z7, Z6                // (im·im′, re·im′)
	VPXORQ  Z9, Z6, Z6                // (−im·im′, re·im′)
	VADDPD  Z6, Z5, Z4
	VMOVUPD Z4, (DI)
	ADDQ $16, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  phaseloop
	VZEROUPPER
	RET
