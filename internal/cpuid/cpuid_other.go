//go:build !amd64

package cpuid

func detect() (avx2, avx512 bool) { return false, false }
