//go:build !amd64

package tile

func mulSubAVX2(c, a, b *float64, n int)  { panic("tile: no AVX2 body on this architecture") }
func minPlusAVX2(c, a, b *float64, n int) { panic("tile: no AVX2 body on this architecture") }
func solveLowerAVX2(c, l *float64, n int, unit bool) {
	panic("tile: no AVX2 body on this architecture")
}
func transposeAVX2(dst, src *float64, n int) { panic("tile: no AVX2 body on this architecture") }
func swAVX2(h, top, left *float64, xs, ys *byte, n, corner, match, mismatch, gap int) (int, bool) {
	panic("tile: no AVX2 body on this architecture")
}
