//go:build !amd64

package qsim

// useMixerAsm is false off amd64: rxTile always takes the portable Go
// kernel.
var useMixerAsm = false

// useMixerAsm512 is false off amd64.
var useMixerAsm512 = false

// rxTileAsm is never called when useMixerAsm is false; this stub only
// satisfies the reference in rxTile.
func rxTileAsm(buf *complex128, n, h0 int, c, sn float64) {
	panic("qsim: rxTileAsm without assembly support")
}

// rxTileAsm512 is never called when useMixerAsm512 is false; this stub
// only satisfies the reference in rxTile.
func rxTileAsm512(buf *complex128, n, h0 int, c, sn float64) {
	panic("qsim: rxTileAsm512 without assembly support")
}

// rxRowsAsm is never called when useMixerAsm is false; this stub only
// satisfies the reference in rxRows.
func rxRowsAsm(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64) {
	panic("qsim: rxRowsAsm without assembly support")
}

// rxRowsAsm512 is never called when useMixerAsm512 is false; this stub
// only satisfies the reference in rxRows.
func rxRowsAsm512(dst, src *complex128, dstStride, srcStride, rows, d int, c, sn float64) {
	panic("qsim: rxRowsAsm512 without assembly support")
}

// rxMirrorAsm is never called when useMixerAsm is false; this stub only
// satisfies the reference in rxMirror.
func rxMirrorAsm(fwd, rev *complex128, n int, c, sn float64) {
	panic("qsim: rxMirrorAsm without assembly support")
}

// rxMirrorAsm512 is never called when useMixerAsm512 is false; this
// stub only satisfies the reference in rxMirror.
func rxMirrorAsm512(fwd, rev *complex128, n int, c, sn float64) {
	panic("qsim: rxMirrorAsm512 without assembly support")
}

// phaseIdxAsm is never called when useMixerAsm is false; this stub only
// satisfies the reference in phaseIdx.
func phaseIdxAsm(buf, ph *complex128, idx *int32, n int, load bool) {
	panic("qsim: phaseIdxAsm without assembly support")
}

// phaseIdxAsm512 is never called when useMixerAsm512 is false; this
// stub only satisfies the reference in phaseIdx.
func phaseIdxAsm512(buf, ph *complex128, idx *int32, n int, load bool) {
	panic("qsim: phaseIdxAsm512 without assembly support")
}
