package cpuid

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detect() (avx2, avx512 bool) {
	const (
		osxsave  = 1 << 27                    // CPUID.1:ECX: XGETBV is available
		avx      = 1 << 28                    // CPUID.1:ECX
		avx2Bit  = 1 << 5                     // CPUID.(7,0):EBX
		avx512f  = 1 << 16                    // CPUID.(7,0):EBX
		avx512dq = 1 << 17                    // CPUID.(7,0):EBX
		ymmOS    = 1<<1 | 1<<2                // XCR0: XMM and YMM state
		zmmOS    = ymmOS | 1<<5 | 1<<6 | 1<<7 // XCR0: and opmask, ZMM0–15's upper halves, ZMM16–31
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmOS != ymmOS {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	avx2 = ebx7&avx2Bit != 0
	avx512 = avx2 && ebx7&(avx512f|avx512dq) == avx512f|avx512dq && xcr0&zmmOS == zmmOS
	return avx2, avx512
}
