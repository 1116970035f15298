package qsim

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"slices"
	"testing"
)

// maxAmpPalette is the value set FuzzDecodeCandidates builds amplitudes
// from: four arbitrary bit patterns from the input, their last-ulp
// neighbours and negation (last-ulp and exact ties), ±0, the smallest
// subnormal, the largest finite value (its square overflows) and three
// slots that hold NaN and ±Inf when special is set and finite values
// otherwise — a vector drawn from a palette this small ties often,
// exactly and in the last ulp.
func maxAmpPalette(raw []byte, special bool) [16]float64 {
	var pal [16]float64
	for i := range 4 {
		var b [8]byte
		copy(b[:], raw[min(len(raw), 8*i):])
		pal[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	pal[4] = math.Float64frombits(math.Float64bits(pal[0]) + 1)
	pal[5] = math.Float64frombits(math.Float64bits(pal[1]) - 1)
	pal[6] = -pal[0]
	pal[7] = 0.5
	pal[8] = 0
	pal[9] = math.Copysign(0, -1)
	pal[10] = math.SmallestNonzeroFloat64
	pal[11] = math.MaxFloat64
	pal[12], pal[13], pal[14] = 1, 1/math.Sqrt2, 0x1p-540
	if special {
		pal[12], pal[13], pal[14] = math.NaN(), math.Inf(1), math.Inf(-1)
	}
	pal[15] = pal[2] * (1 / math.Sqrt2)
	return pal
}

// FuzzDecodeCandidates requires DecodeCandidates to match a sort-based
// oracle over the expanded state for k ∈ {1, 2, 3, 8}, on full and
// Z2-reduced states of 1…67 amplitudes: the first 32 bytes of raw seed
// the palette, the next picks the length, and each byte after that one
// amplitude (low nibble the real part, high nibble the imaginary). A
// vector with no NaN or infinite amplitude always has a candidate. A
// vector of whole batches is also decoded through the batch peaks
// (batchedLayouts), in every split of its batches into rows.
func FuzzDecodeCandidates(f *testing.F) {
	ties := make([]byte, 32+1+67)
	ties[32] = 66
	for i := 33; i < len(ties); i++ {
		ties[i] = 0x77 // every amplitude (0.5, 0.5): one exact tie
	}
	f.Add(ties, false, false)
	f.Add(ties, true, false)
	ulp := make([]byte, 32+1+67)
	binary.LittleEndian.PutUint64(ulp, math.Float64bits(0.006072534395455154))
	binary.LittleEndian.PutUint64(ulp[8:], math.Float64bits(0.009752416188605784))
	ulp[32] = 40
	for i := 33; i < len(ulp); i++ {
		ulp[i] = []byte{0x10, 0x14, 0x41, 0x88, 0x45}[i%5] // last-ulp pairs
	}
	f.Add(ulp, true, false)
	f.Add(ulp, false, false)
	mixed := make([]byte, 32+1+67)
	for i := range mixed {
		mixed[i] = byte(i*37 + 11)
	}
	mixed[32] = 63
	f.Add(mixed, false, true)
	f.Add(mixed, true, true)
	f.Add(mixed, true, false)
	f.Add([]byte{}, false, false)
	// Whole batches: 64 exact ties and 48 last-ulp pairs.
	ties64 := append([]byte(nil), ties...)
	ties64[32] = 63
	f.Add(ties64, false, false)
	f.Add(ties64, true, false)
	ulp48 := append([]byte(nil), ulp...)
	ulp48[32] = 47
	f.Add(ulp48, true, false)
	f.Add(ulp48, false, false)

	f.Fuzz(func(t *testing.T, raw []byte, z2, special bool) {
		pal := maxAmpPalette(raw, special)
		n := 1
		if len(raw) > 32 {
			n += int(raw[32]) % 67
		}
		amps := make([]complex128, n)
		for i := range amps {
			var b byte
			if 33+i < len(raw) {
				b = raw[33+i]
			}
			amps[i] = complex(pal[b&15], pal[b>>4])
		}
		s := &State{amps: amps}
		full := s
		if z2 {
			// The expansion, in the stored order: each pair's members
			// carry ExpandZ2's amplitude a/√2 side by side.
			s.z2Full = 1
			full = &State{amps: make([]complex128, 0, 2*n)}
			for _, a := range amps {
				v := complex(real(a)*z2Scale, imag(a)*z2Scale)
				full.amps = append(full.amps, v, v)
			}
		}
		var probs []float64
		for i := range full.amps {
			if p := full.Probability(uint64(i)); !math.IsNaN(p) {
				probs = append(probs, p)
			}
		}
		finite := !slices.ContainsFunc(amps, func(a complex128) bool { return cmplx.IsNaN(a) || cmplx.IsInf(a) })
		slices.Sort(probs)
		slices.Reverse(probs)
		layouts := append([]*State{s}, batchedLayouts(s)...)
		for _, k := range []int{1, 2, 3, 8} {
			var want []uint64
			if len(probs) > 0 {
				p := probs[min(k, len(probs))-1]
				lo, hi := p*(1-tieTol), p*(1+tieTol)
				ties, step := 0, len(full.amps)/n
				for i := range n {
					q := full.Probability(uint64(step * i))
					if q > hi || q >= lo && ties < maxTies {
						want = append(want, uint64(i))
						if q <= hi {
							ties++
						}
					}
				}
			}
			for _, l := range layouts {
				got := l.DecodeCandidates(k, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("k=%d, %d amplitudes, z2 %v, %d batches: candidates %v, oracle %v",
						k, n, z2, len(l.peaks), got, want)
				}
				if finite && len(got) == 0 {
					t.Fatalf("k=%d, %d finite amplitudes, z2 %v: no candidate", k, n, z2)
				}
			}
		}
	})
}

// batchedLayouts returns s's amplitudes as the states a folding sweep
// could leave: for every batch count dividing len/highBatch, a State
// with one peak per batch, each taken by the engine's own fold over the
// batch's rows. A vector of no whole batches has none.
func batchedLayouts(s *State) []*State {
	n := len(s.amps)
	if n%highBatch != 0 {
		return nil
	}
	zero := CostTables{Diag: make([]float64, highBatch)}
	var out []*State
	for batches := 1; batches <= n/highBatch; batches++ {
		if n/highBatch%batches != 0 {
			continue
		}
		b := &State{n: s.n, amps: s.amps, z2Full: s.z2Full, peaks: make([]float64, batches)}
		for off := 0; off < n; off += highBatch {
			u := off / highBatch % batches
			_, peak := zero.fold(0, math.Float64bits(b.peaks[u]), s.amps[off:off+highBatch], 0)
			b.peaks[u] = math.Float64frombits(peak)
		}
		out = append(out, b)
	}
	return out
}
