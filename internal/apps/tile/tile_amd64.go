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
