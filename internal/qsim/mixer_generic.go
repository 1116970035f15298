//go:build !amd64

package qsim

// Off amd64 there are no assembly kernels: the tier is portable and
// every dispatch is the Go kernel (see mixer_amd64.go for the
// contracts).

func detectTier() kernelTier { return tierPortable }

func rxTile(buf []complex128, h0 int, c, sn float64) { rxTileGo(buf, h0, c, sn) }

func rxRows(dst []complex128, dstStride int, src []complex128, srcStride int, rows, d int, c, sn float64) {
	rxRowsGo(dst, dstStride, src, srcStride, rows, d, c, sn)
}

func rxMirror(fwd, rev []complex128, c, sn float64) { rxMirrorGo(fwd, rev, c, sn) }

func phaseIdx(buf, ph []complex128, idx []int32, load bool) { phaseIdxGo(buf, ph, idx, load) }

func indexMax(idx []int32) uint32 { return indexMaxGo(idx) }
