package qsim

import (
	"testing"

	"qaoa2/internal/rng"
)

// phaseFixture draws a phase table of levels entries and an index of
// n entries that hits every level once n ≥ levels — the last level
// first, the rest in a shuffled cycle — so a kernel reading past the
// table's end, or not at all, shows.
func phaseFixture(n, levels int, seed uint64) (ph []complex128, idx []int32) {
	ph = randomTile(levels, seed)
	r := rng.New(seed + 1)
	perm := make([]int32, levels)
	for i := range perm {
		perm[i] = int32(levels - 1 - i)
	}
	for i := levels - 1; i > 1; i-- {
		j := 1 + int(r.Uint64()%uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	idx = make([]int32, n)
	for i := range idx {
		idx[i] = perm[i%levels]
	}
	return ph, idx
}

// TestMirrorAndPhaseDispatchAnyLength runs the dispatching wrappers in
// every kernel tier at every length 1…67, where the assembly kernels
// take the multiple-of-4 head and the Go kernels the rest: over the
// whole slice the results must be the Go kernels' — to 1e-12 for the
// butterfly, whose assembly fuses its multiply-adds, and bit for bit
// for the phase pass.
func TestMirrorAndPhaseDispatchAnyLength(t *testing.T) {
	const c, sn = 0.5403023058681398, 0.8414709848078965
	kernelTiers(t, func(t *testing.T) {
		for n := 1; n <= 67; n++ {
			wf, wr := randomTile(n, uint64(n)), randomTile(n, uint64(n)+100)
			gf, gr := append([]complex128(nil), wf...), append([]complex128(nil), wr...)
			rxMirrorGo(wf, wr, c, sn)
			rxMirror(gf, gr, c, sn)
			for i := range gf {
				if !cEq(gf[i], wf[i], 1e-12) || !cEq(gr[i], wr[i], 1e-12) {
					t.Fatalf("n=%d: pair %d = (%v, %v), Go kernel (%v, %v)", n, i, gf[i], gr[i], wf[i], wr[i])
				}
			}
			ph, idx := phaseFixture(n, 5, uint64(n))
			for _, load := range []bool{true, false} {
				want := randomTile(n, uint64(n)+200)
				got := append([]complex128(nil), want...)
				phaseIdxGo(want, ph, idx, load)
				phaseIdx(got, ph, idx, load)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("n=%d load=%v: amp %d = %v, want %v", n, load, i, got[i], want[i])
				}
			}
		}
	})
}
