package block

// tailMask is 32 all-ones words and then 32 zero words: the AVX2 body's
// masks for a segment's last t < 32 words are its words 32−t to 63−t.
var tailMask = func() (m [2 * stripe]uint64) {
	for j := range stripe {
		m[j] = ^uint64(0)
	}
	return m
}()

// digestsAVX2 and digestsAVX512 are digests' assembly bodies
// (checksum_amd64.s) for n > 0 words at src: they write the digest of each
// segment to out[0], out[1], …, and copy the words to dst in the same pass
// when dst is not nil. digestsAVX2 keeps the 32 lanes in eight ymm registers
// and builds each 64-bit multiply from three VPMULUDQ; digestsAVX512 keeps
// them in four zmm registers and multiplies with VPMULLQ.
//
//go:noescape
func digestsAVX2(dst, src *float64, n int, out *uint64)

//go:noescape
func digestsAVX512(dst, src *float64, n int, out *uint64)
