package qsim

import (
	"fmt"
	"testing"
)

// The assembly kernels called directly, each against the Go kernel of
// its contract, in the tiers this process may run. The dispatchers are
// covered on every GOARCH by the kernelTiers tests.

// kernelGuard is the value kernel tests surround a sub-slice with; a
// kernel that writes past its slice leaves something else there.
const kernelGuard = complex(-7, 7)

// guarded returns a copy of src inside a buffer with off guard values
// before it and four after, plus the sub-slice holding src. The
// allocator aligns the buffer to at least 16 bytes, so offsets 0…3
// start the sub-slice at each 16-byte slot of a 64-byte cache line.
func guarded(src []complex128, off int) (buf, sub []complex128) {
	buf = make([]complex128, off+len(src)+4)
	for i := range buf {
		buf[i] = kernelGuard
	}
	sub = buf[off : off+len(src)]
	copy(sub, src)
	return buf, sub
}

// checkGuards fails when a kernel wrote outside sub's part of buf.
func checkGuards(t *testing.T, name string, buf []complex128, off, n int) {
	t.Helper()
	for i, v := range buf {
		if (i < off || i >= off+n) && v != kernelGuard {
			t.Fatalf("%s: wrote %v at %d, outside [%d, %d)", name, v, i, off, off+n)
		}
	}
}

// TestRxTileAsm512MatchesGo pins the ZMM kernel against the portable
// butterfly network tile-by-tile across every entry regime: h0 = 1
// (fused levels 1+2), h0 = 2 (standalone half-rotate level) and
// h0 = highBatch (the gathered high-pass shape), at the minimum two-
// register size through full low-block tiles.
func TestRxTileAsm512MatchesGo(t *testing.T) {
	if hostTier < tierAVX512 {
		t.Skip("AVX-512 tile kernel not active on this machine")
	}
	const c, sn = 0.731688868873821, 0.681638760023334
	for _, n := range []int{8, 16, 64, 256, 1 << lowBlockQubits} {
		for _, h0 := range []int{1, 2, highBatch} {
			if n < 2*h0 {
				continue
			}
			want := randomTile(n, uint64(n*3+h0))
			got := append([]complex128(nil), want...)
			rxTileGo(want, h0, c, sn)
			rxTileAsm512(&got[0], n, h0, c, sn)
			for i := range got {
				if !cEq(got[i], want[i], 1e-12) {
					t.Fatalf("n=%d h0=%d: amp %d = %v, want %v", n, h0, i, got[i], want[i])
				}
			}
		}
	}
}

// checkMirrorKernel pins a reversed-partner kernel over lengths
// 4…1024 (multiples of 4), each half starting at every 16-byte slot of
// a cache line: bit for bit against the same tier's tile kernel running
// the one level h = n on the scratch copy [fwd, reversed rev] — the
// boundary level of the scratch mirror walk — and at 1e-12 against
// rxMirrorGo, which does not fuse its multiply-adds. The tile kernel
// needs a power-of-two level, so the bit check runs at those lengths.
func checkMirrorKernel(t *testing.T, kernel func(fwd, rev *complex128, n int, c, sn float64),
	tile func(buf *complex128, n, h0 int, c, sn float64)) {
	const c, sn = 0.731688868873821, 0.681638760023334
	for n := 4; n <= 1<<lowBlockQubits; n += 4 {
		for off := 0; off < 4; off++ {
			name := fmt.Sprintf("n=%d off=%d", n, off)
			wf, wr := randomTile(n, uint64(n*8+off)), randomTile(n, uint64(n*8+off+4))
			fbuf, fwd := guarded(wf, off)
			rbuf, rev := guarded(wr, 3-off)
			sc := append([]complex128(nil), wf...)
			for i := range wr {
				sc = append(sc, wr[n-1-i])
			}
			rxMirrorGo(wf, wr, c, sn)
			kernel(&fwd[0], &rev[0], n, c, sn)
			for i := range fwd {
				if !cEq(fwd[i], wf[i], 1e-12) || !cEq(rev[i], wr[i], 1e-12) {
					t.Fatalf("%s: pair %d = (%v, %v), Go kernel (%v, %v)", name, i, fwd[i], rev[i], wf[i], wr[i])
				}
			}
			if n&(n-1) == 0 {
				tile(&sc[0], 2*n, n, c, sn)
				for i := range wr {
					wf[i], wr[n-1-i] = sc[i], sc[n+i]
				}
				if i := firstBitDiff(fwd, wf); i >= 0 {
					t.Fatalf("%s: fwd %d = %v, tile kernel %v", name, i, fwd[i], wf[i])
				}
				if i := firstBitDiff(rev, wr); i >= 0 {
					t.Fatalf("%s: rev %d = %v, tile kernel %v", name, i, rev[i], wr[i])
				}
			}
			checkGuards(t, name+" fwd", fbuf, off, n)
			checkGuards(t, name+" rev", rbuf, 3-off, n)
		}
	}
}

// checkPhaseKernel pins an indexed phase kernel bit for bit against
// phaseIdxGo over lengths 4…1024 (multiples of 4), both forms (load and
// multiply), the tile starting at every 16-byte slot of a cache line,
// with a 61-level table whose every level the longer tiles hit.
func checkPhaseKernel(t *testing.T, kernel func(buf, ph *complex128, idx *int32, n int, load bool)) {
	for n := 4; n <= 1<<lowBlockQubits; n += 4 {
		ph, idx := phaseFixture(n, 61, uint64(n))
		for off := 0; off < 4; off++ {
			for _, load := range []bool{true, false} {
				name := fmt.Sprintf("n=%d off=%d load=%v", n, off, load)
				want := randomTile(n, uint64(n*8+off))
				buf, got := guarded(want, off)
				phaseIdxGo(want, ph, idx, load)
				kernel(&got[0], &ph[0], &idx[0], n, load)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s: amp %d = %v, want %v", name, i, got[i], want[i])
				}
				checkGuards(t, name, buf, off, n)
			}
		}
	}
}

func TestRxMirrorAsmMatchesGo(t *testing.T) {
	if hostTier < tierAVX2 {
		t.Skip("AVX2 kernels not active on this machine")
	}
	checkMirrorKernel(t, rxMirrorAsm, rxTileAsm)
}

func TestRxMirrorAsm512MatchesGo(t *testing.T) {
	if hostTier < tierAVX512 {
		t.Skip("AVX-512 kernels not active on this machine")
	}
	checkMirrorKernel(t, rxMirrorAsm512, rxTileAsm512)
}

func TestPhaseIdxAsmMatchesGo(t *testing.T) {
	if hostTier < tierAVX2 {
		t.Skip("AVX2 kernels not active on this machine")
	}
	checkPhaseKernel(t, phaseIdxAsm)
}

func TestPhaseIdxAsm512MatchesGo(t *testing.T) {
	if hostTier < tierAVX512 {
		t.Skip("AVX-512 kernels not active on this machine")
	}
	checkPhaseKernel(t, phaseIdxAsm512)
}
