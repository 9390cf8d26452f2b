//go:build !amd64

package block

func digestsAVX2(dst, src *float64, n int, out *uint64) {
	panic("block: no AVX2 body on this architecture")
}

func digestsAVX512(dst, src *float64, n int, out *uint64) {
	panic("block: no AVX-512 body on this architecture")
}
