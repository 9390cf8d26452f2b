package tile

// mulSubAVX2 and minPlusAVX2 are the kernels' AVX2 bodies (tile_amd64.s),
// for n > 0 a multiple of 8 and tiles of n·n elements.
//
//go:noescape
func mulSubAVX2(c, a, b *float64, n int)

//go:noescape
func minPlusAVX2(c, a, b *float64, n int)

// solveLowerAVX2 is SolveLower's AVX2 body (tile_amd64.s), for n > 0 a
// multiple of 8.
//
//go:noescape
func solveLowerAVX2(c, l *float64, n int, unit bool)

// transposeAVX2 is Transpose's AVX2 body (tile_amd64.s), for n > 0 a
// multiple of 4 and dst either src or not overlapping it.
//
//go:noescape
func transposeAVX2(dst, src *float64, n int)

// swAVX2 is SmithWaterman's AVX2 body (tile_amd64.s), for n and scores
// swSIMD takes and a corner swWord takes. It returns the largest cell, at
// least 0, or ok = false, having left h's cells unwritten, when a word of
// top or left is not an integer within ±swBound.
//
//go:noescape
func swAVX2(h, top, left *float64, xs, ys *byte, n, corner, match, mismatch, gap int) (best int, ok bool)
