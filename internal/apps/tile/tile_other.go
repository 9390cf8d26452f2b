//go:build !amd64

package tile

const hasAVX2 = false

func mulSubAVX2(c, a, b *float64, n int)  { panic("tile: no AVX2 body on this architecture") }
func minPlusAVX2(c, a, b *float64, n int) { panic("tile: no AVX2 body on this architecture") }
