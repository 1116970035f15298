package main

import "time"

// refWords sizes the reference loop's array: 8 MiB of float64, the size
// of a 20-qubit Z2 statevector, so the loop sees the memory system the
// solves see.
const refWords = 1 << 20

// refNominalS is what the reference loop takes on a quiet host of the
// class the bounds were set on (2 vCPUs, 2.1 GHz Xeon, avx512 tier).
const refNominalS = 0.0030

// hostScale is the factor that takes seconds measured beside the given
// reference samples to seconds on the nominal quiet host. On a shared
// VM whole runs are slowed by the neighbours, by up to 2x for minutes:
// no statistic over one run's repetitions removes that, but the
// reference loop, interleaved with the repetitions, is slowed with
// them. Over 18-repetition stretches of one process the fastest-quarter
// solve time spread 32% raw and 7% scaled (dag-checkpoint), 16% and 9%
// (merge-heavy), 13% and 9% (serve-mix), 25% and 18% (leaf-heavy).
func hostScale(refS []float64) float64 {
	if len(refS) == 0 {
		return 1
	}
	return refNominalS / steadyEstimate(refS, nil)
}

// hostRef times a fixed loop over buf: two butterfly passes over the
// whole 8 MiB (the memory system, as a 20-qubit leaf uses it) and as
// much time again in butterflies over its first 32 KiB (arithmetic out
// of L1, as the small sub-graph solves use the core). The loop never
// changes with the repository, so its time moves only with the host: it
// scales the timed metrics (hostScale), and the spread of its samples
// over a run (host.ref_noise) says how much of a timing difference to
// believe.
func hostRef(buf []float64) float64 {
	t := time.Now()
	butterflies(buf, 1, 4096)
	for pass := 0; pass < 280; pass++ {
		butterflies(buf[:4096], 1, 64)
	}
	return time.Since(t).Seconds()
}

// butterflies runs one butterfly pass over buf at each of two strides.
func butterflies(buf []float64, strideA, strideB int) {
	const c = 0.7071067811865476 // keeps the values bounded
	for _, stride := range [2]int{strideA, strideB} {
		for base := 0; base < len(buf); base += 2 * stride {
			for i := base; i < base+stride; i++ {
				a, b := buf[i], buf[i+stride]
				buf[i], buf[i+stride] = (a+b)*c, (a-b)*c
			}
		}
	}
}

func newRefBuffer() []float64 {
	buf := make([]float64, refWords)
	for i := range buf {
		buf[i] = float64(i&15) - 7.5
	}
	return buf
}
