package qsim

import (
	"fmt"
	"math"
	"testing"

	"qaoa2/internal/rng"
)

// gatherSweep is the high-sweep oracle: the gather → rxTile → scatter
// loop the engines and ApplyRXAll each carried before rxHighSweep. It
// copies every batch's strided rows into a contiguous buffer, runs the
// whole butterfly network there, folds the batch's energy on the buffer
// into sums[u] and copies the rows back. Same contract as rxHighSweep,
// with the expectation diagonal as a plain table (nil: no fold).
func gatherSweep(amps []complex128, diag, sums []float64, g0, m, start, end int, c, sn float64) {
	tl := 1 << uint(m)
	stride := 1 << uint(g0)
	mask := stride - 1
	bb := make([]complex128, tl*highBatch)
	for u := start; u < end; u++ {
		t := u * highBatch
		base := (t&^mask)<<uint(m) | t&mask
		p := base
		for v := 0; v < tl; v++ {
			copy(bb[v*highBatch:(v+1)*highBatch], amps[p:p+highBatch])
			p += stride
		}
		rxTile(bb, highBatch, c, sn)
		if diag != nil {
			acc := 0.0
			p = base
			for v := 0; v < tl; v++ {
				d := diag[p : p+highBatch]
				row := bb[v*highBatch : (v+1)*highBatch]
				for j := range row {
					a := row[j]
					re, im := real(a), imag(a)
					acc += (re*re + im*im) * d[j]
				}
				p += stride
			}
			sums[u] = acc
		}
		p = base
		for v := 0; v < tl; v++ {
			copy(amps[p:p+highBatch], bb[v*highBatch:(v+1)*highBatch])
			p += stride
		}
	}
}

// kernelTiers runs body as one subtest per kernel tier this process
// may run, lowest first, switching tiers with SetKernelTier.
func kernelTiers(t *testing.T, body func(t *testing.T)) {
	for _, name := range tierNames {
		restore, err := SetKernelTier(name)
		if err != nil {
			return // above the host's tier, as is every later one
		}
		t.Run(name, body)
		restore()
	}
}

// firstBitDiff returns the first index at which a and b differ in their
// float64 bit patterns, or −1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestRxRowsMatchesGatheredTile pins the single-level row kernel, in
// every tier, bit for bit against the same level run by rxTile on a
// gathered copy (in the portable tier that is rxTileGo): every group
// width m = 1…6 and every level d of it, row strides 2^9…2^14, in place
// on the strided rows, strided → contiguous scratch and scratch →
// strided. The amplitudes between rows are checked untouched.
func TestRxRowsMatchesGatheredTile(t *testing.T) {
	const c, sn = 0.731688868873821, 0.681638760023334
	const maxRows, maxStride = 1 << mixerBlockQubits, 1 << 14
	pristine := randomTile((maxRows-1)*maxStride+2*highBatch, 77)
	got := make([]complex128, len(pristine))
	want := make([]complex128, len(pristine))
	bb := make([]complex128, highBufLen)
	sc := make([]complex128, highBufLen)

	// level applies level d to the rows of want through a gathered copy.
	level := func(rows, stride, d int) {
		for v := 0; v < rows; v++ {
			copy(bb[v*highBatch:(v+1)*highBatch], want[v*stride:])
		}
		block := 2 * d * highBatch
		for a := 0; a < rows*highBatch; a += block {
			rxTile(bb[a:a+block], d*highBatch, c, sn)
		}
		for v := 0; v < rows; v++ {
			copy(want[v*stride:v*stride+highBatch], bb[v*highBatch:(v+1)*highBatch])
		}
	}
	kernelTiers(t, func(t *testing.T) {
		for g0 := 9; g0 <= 14; g0++ {
			stride := 1 << uint(g0)
			for m := 1; m <= mixerBlockQubits; m++ {
				rows := 1 << uint(m)
				span := (rows-1)*stride + 2*highBatch
				for d := 1; d < rows; d <<= 1 {
					for _, form := range []string{"in-place", "to-scratch", "from-scratch"} {
						copy(got[:span], pristine)
						copy(want[:span], pristine)
						level(rows, stride, d)
						switch form {
						case "in-place":
							rxRows(got, stride, got, stride, rows, d, c, sn)
						case "to-scratch":
							rxRows(sc, highBatch, got, stride, rows, d, c, sn)
							for v := 0; v < rows; v++ {
								copy(got[v*stride:v*stride+highBatch], sc[v*highBatch:])
							}
						case "from-scratch":
							for v := 0; v < rows; v++ {
								copy(sc[v*highBatch:(v+1)*highBatch], got[v*stride:])
							}
							rxRows(got, stride, sc, highBatch, rows, d, c, sn)
						}
						if i := firstBitDiff(got[:span], want[:span]); i >= 0 {
							t.Fatalf("stride=2^%d m=%d d=%d %s: amp %d = %v, want %v", g0, m, d, form, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestRxHighSweepMatchesGatherSweep pins the shared sweep bit for bit
// against the oracle on every (stride, width) geometry, without the
// energy fold and with it through either table form, over a sub-range
// of batches: every amplitude, and every batch's energy sum, written
// into its own slot and into no other.
func TestRxHighSweepMatchesGatherSweep(t *testing.T) {
	const c, sn = 0.5403023058681398, 0.8414709848078965
	scratch := make([]complex128, highBufLen)
	kernelTiers(t, func(t *testing.T) {
		for g0 := 9; g0 <= 12; g0++ {
			for m := 1; m <= mixerBlockQubits; m++ {
				n := 1 << uint(g0+m)
				want := randomTile(n, uint64(g0*8+m))
				got := append([]complex128(nil), want...)
				diag := make([]float64, n)
				idx := make([]int32, n)
				r := rng.New(uint64(n))
				for i := range diag {
					idx[i] = int32(r.Uint64() % 9)
					diag[i] = float64(idx[i])
				}
				values := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
				batches := n >> uint(m) / highBatch
				start, end := batches/4, batches
				gs, ws := make([]float64, batches), make([]float64, batches)
				folds := []*CostTables{nil, {Diag: diag}, {Levels: values, Values: values, Idx: idx}}
				for form, cost := range folds {
					var d []float64
					if cost != nil {
						d = diag
					}
					for u := range gs {
						gs[u], ws[u] = -1, -1
					}
					gatherSweep(want, d, ws, g0, m, start, end, c, sn)
					rxHighSweep(got, scratch, cost, gs, g0, m, start, end, c, sn)
					for u := range gs {
						if math.Float64bits(gs[u]) != math.Float64bits(ws[u]) {
							t.Fatalf("g0=%d m=%d form=%d: batch %d energy %v, want %v", g0, m, form, u, gs[u], ws[u])
						}
					}
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("g0=%d m=%d form=%d: amp %d = %v, want %v", g0, m, form, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestEnginesBitIdenticalToGatherSweep runs the engine against a twin
// whose high sweeps are the gather oracle: energy and every amplitude
// must agree in their float64 bits at nFull = 12…21, p = 1…3, reduced
// and unreduced. The twin differs from the production engine only in
// its highBody, swapped after NewEngine; it writes the same per-batch
// partials, which Evaluate sums in batch order.
func TestEnginesBitIdenticalToGatherSweep(t *testing.T) {
	sizes := []int{12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	if testing.Short() {
		sizes = []int{12, 17, 18}
	}
	for _, nFull := range sizes {
		for _, z2 := range []bool{false, true} {
			diag, levels, idx, shift := z2Fixture(t, nFull, uint64(nFull)*3+1)
			size := len(diag)
			if z2 {
				size /= 2
			}
			cost := fixtureTables(size, false, diag, levels, idx, shift)
			name := fmt.Sprintf("nFull=%d z2=%v", nFull, z2)
			eng, err := NewEngine(nFull, z2, cost)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewEngine(nFull, z2, cost)
			if err != nil {
				t.Fatal(err)
			}
			twin.highBody = func(_, start, end int) {
				if twin.expect {
					gatherSweep(twin.amps, diag[:size], twin.partials, twin.g0, twin.m, start, end, twin.c, twin.sn)
					return
				}
				gatherSweep(twin.amps, nil, nil, twin.g0, twin.m, start, end, twin.c, twin.sn)
			}
			for p := 1; p <= 3; p++ {
				gammas, betas := engineParams(eng.State().N(), p)
				got, want := eng.Evaluate(gammas, betas), twin.Evaluate(gammas, betas)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s p=%d: energy %v, oracle sweep %v", name, p, got, want)
				}
				st, ost := eng.State(), twin.State()
				if i := firstBitDiff(st.amps, ost.amps); i >= 0 {
					t.Fatalf("%s p=%d: amp %d = %v, oracle sweep %v", name, p, i, st.amps[i], ost.amps[i])
				}
			}
		}
	}
}
