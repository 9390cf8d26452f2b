package tile

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
var hasAVX2 = detectAVX2()

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX: XGETBV is available
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmOS   = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmOS != ymmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
