package block

import (
	"math"
	"math/bits"

	"ftdag/internal/cpuid"
)

// Checksum constants: an odd multiplier for the lane steps, a second one for
// the finish, and four distinct seeds for the lanes of a short
// payload (so an all-zero payload does not leave the lanes at a fixed point
// and equal words in different lanes hash differently).
const (
	sumMul  = 0x9E3779B97F4A7C15
	sumMul2 = 0xC2B2AE3D27D4EB4F
	seed0   = 0x243F6A8885A308D3
	seed1   = 0x13198A2E03707344
	seed2   = 0xA4093822299F31D0
	seed3   = 0x082EFA98EC4E6C89
)

// segWords is the length, in words, of the segments a payload of stripe
// words or more is hashed in, and by which a verifying store checks a ReadAt.
const segWords = 256

// stripe is how many lanes a segment is hashed in: word i of a segment goes
// to lane i mod stripe. A payload shorter than one stripe is hashed in four
// lanes instead.
const stripe = 32

// segSeeds are the lane seeds of every segment, distinct: mixOut is a
// bijection and its inputs differ. The assembly bodies load them from here.
var segSeeds = func() (s [stripe]uint64) {
	for j := range s {
		s[j] = mixOut(seed0 + uint64(j)*sumMul)
	}
	return s
}()

// Checksum is the one integrity function of the data path: the store's
// per-version checksum (Write, Read verification, CorruptSilently) and the
// digest replicas are compared by (replica.Digest). Every lane of it takes
// float64 bit patterns a word at a time with the step
//
//	h = (rotl(h, 29) ^ w) * sumMul
//
// A payload of stripe (32) words or more is cut into segments of segWords
// (256) words, the last one possibly shorter. Each segment is hashed from the
// fixed seeds segSeeds in 32 lanes, word i of the segment going to lane
// i mod 32, and its 32 lanes are folded to one 64-bit digest by halves — lane
// j becomes l[j] ^ P(l[j+h]) for h = 16, 8, 4, 2, 1, where P(x) = rotl(x, 29).
// The length and the digests, in order, are then combined by finish-style
// steps (absorb, mixOut). A payload of fewer than 32 words is hashed in four
// lanes, word i going to lane i mod 4, and the length and the four lanes are
// combined the same way (finish): a one-word payload costs what it always did.
//
// Detection argument. Rotation, xor with a constant and multiplication by an
// odd constant are each bijections of the 64-bit words, so a lane step is a
// bijection of h for a fixed w and of w for a fixed h. Take two payloads of
// equal length that differ in exactly one word. The lane that word goes to
// holds different states right after it, the remaining steps of the lane
// apply the same bijections to both, so the lane ends different; every other
// lane ends equal. In a fold step l[j] ^ P(l[j+h]) with exactly one input
// different, the result differs — an xor with an equal value, or P, a
// bijection, of a different one — so exactly one value differs at each level
// and the segment's digest differs, while every other segment's is equal. The
// combine steps are bijections of the running value for a fixed digest (or
// lane) and of the digest for a fixed running value, so the two checksums
// differ — for every single-word change (any single bit flip, the injector's
// flipBits pattern), not merely with high probability. Changes to several
// words, a swap of unequal words across lanes (the lanes are seeded
// differently and folded in order, so they are not interchangeable) and a
// length change (the length is combined in, and a zero word still moves a
// lane) are detected up to 64-bit hash collisions.
//
// The segment hash has three bodies of one value (digests): Go, the
// reference; AVX2; and AVX-512 F+DQ, chosen once at init (body).
func Checksum(data []float64) uint64 {
	if len(data) >= stripe {
		return sumSegments(nil, data)
	}
	h0, h1, h2, h3 := uint64(seed0), uint64(seed1), uint64(seed2), uint64(seed3)
	n := len(data)
	for len(data) >= 4 {
		h0 = step(h0, data[0])
		h1 = step(h1, data[1])
		h2 = step(h2, data[2])
		h3 = step(h3, data[3])
		data = data[4:]
	}
	switch len(data) {
	case 3:
		h2 = step(h2, data[2])
		fallthrough
	case 2:
		h1 = step(h1, data[1])
		fallthrough
	case 1:
		h0 = step(h0, data[0])
	}
	return finish(n, h0, h1, h2, h3)
}

// copySum copies src into dst, which must be as long, and returns
// Checksum(src) computed in the same pass: each word is loaded once, stored
// and hashed, so the checksum is that of what dst holds.
func copySum(dst, src []float64) uint64 {
	dst = dst[:len(src)]
	if len(src) >= stripe {
		return sumSegments(dst, src)
	}
	copy(dst, src)
	return Checksum(dst)
}

// stackSegs is how many segment digests a checksum or a verifying write keeps
// on its stack: a 32 KiB tile and the column LCS and SW append to it.
const stackSegs = 17

// segments returns how many segments an n-word payload is hashed in.
func segments(n int) int { return (n + segWords - 1) / segWords }

// sumSegments is Checksum of src, stripe words or more, copying it into dst
// in the same pass when dst is not nil. It hashes stackSegs segments at a
// time.
func sumSegments(dst, src []float64) uint64 {
	var d [stackSegs]uint64
	h := uint64(len(src)) * sumMul2
	for off := 0; off < len(src); off += stackSegs * segWords {
		end := min(off+stackSegs*segWords, len(src))
		var to []float64
		if dst != nil {
			to = dst[off:end]
		}
		h = absorbAll(h, digests(to, src[off:end], d[:]))
	}
	return mixOut(h)
}

// snapCount returns how many segment digests a verifying store keeps for an
// n-word payload: one per segment when it has more than one, else none.
func snapCount(n int) int {
	if n <= segWords {
		return 0
	}
	return segments(n)
}

// checksumSnaps returns Checksum(data) and records in snaps — none, or
// snapCount(len(data)) — the digest of each segment of data.
func checksumSnaps(data []float64, snaps []uint64) uint64 {
	if len(snaps) == 0 {
		return Checksum(data)
	}
	return mixOut(absorbAll(uint64(len(data))*sumMul2, digests(nil, data, snaps)))
}

// The bodies of digests.
const (
	bodyGo = iota
	bodyAVX2
	bodyAVX512
)

// body is the body digests runs, fixed at init: the widest the CPU has, and
// the Go one off amd64 and in a race build, whose detector does not see
// memory accesses made in assembly. Tests set it to run every body on the
// same payloads.
var body = func() int {
	switch {
	case raceEnabled || !cpuid.AVX2:
		return bodyGo
	case cpuid.AVX512:
		return bodyAVX512
	}
	return bodyAVX2
}()

// digests writes the digest of each segment of src, a non-empty payload or a
// run of its segments, to out and returns out[:segments(len(src))]; when dst
// is not nil it copies src into dst, as long, in the same pass. out must hold
// that many.
func digests(dst, src []float64, out []uint64) []uint64 {
	out = out[:segments(len(src))]
	switch body {
	case bodyAVX512:
		digestsAVX512(start(dst, len(src)), &src[0], len(src), &out[0])
	case bodyAVX2:
		digestsAVX2(start(dst, len(src)), &src[0], len(src), &out[0])
	default:
		digestsGo(dst, src, out)
	}
	return out
}

// start returns &dst[0] once dst is checked to hold n words, or nil for a
// nil dst.
func start(dst []float64, n int) *float64 {
	if dst == nil {
		return nil
	}
	return &dst[:n][0]
}

// digestsGo is digests' Go body, the reference the assembly ones match.
func digestsGo(dst, src []float64, out []uint64) {
	if dst != nil {
		copy(dst[:len(src)], src)
	}
	for k := range out {
		seg := src[k*segWords : min(k*segWords+segWords, len(src))]
		h := segSeeds
		for len(seg) >= stripe {
			s := seg[:stripe]
			for j := range h {
				h[j] = step(h[j], s[j])
			}
			seg = seg[stripe:]
		}
		for j, w := range seg {
			h[j] = step(h[j], w)
		}
		out[k] = fold(&h)
	}
}

// fold folds the lane states of a segment to its digest by halves: lane j
// takes lane j+half through P(x) = rotl(x, 29), a bijection, for half = 16,
// 8, 4, 2, 1 — the order in which a vector body folds its registers. The
// lanes are mixed already; a multiply here would add its latency to every
// segment of the AVX-512 body, ≈ 100 cycles, for nothing the detection
// argument needs.
func fold(h *[stripe]uint64) uint64 {
	for half := stripe / 2; half > 0; half /= 2 {
		for j := range half {
			h[j] ^= bits.RotateLeft64(h[j+half], 29)
		}
	}
	return h[0]
}

// step is one lane step of Checksum.
func step(h uint64, w float64) uint64 {
	return (bits.RotateLeft64(h, 29) ^ math.Float64bits(w)) * sumMul
}

// absorb combines one more lane or digest x into the running value h: a
// bijection of h for a fixed x and of x for a fixed h.
func absorb(h, x uint64) uint64 { return (bits.RotateLeft64(h, 31) ^ x) * sumMul }

// absorbAll absorbs the digests d in order.
func absorbAll(h uint64, d []uint64) uint64 {
	for _, x := range d {
		h = absorb(h, x)
	}
	return h
}

// mixOut is the last bijection of a checksum: xor-shifts around an odd
// multiplication.
func mixOut(h uint64) uint64 {
	h ^= h >> 32
	h *= sumMul2
	h ^= h >> 29
	return h
}

// finish folds the length and the four lanes of a short, n-word payload into
// its checksum.
func finish(n int, h0, h1, h2, h3 uint64) uint64 {
	h := uint64(n) * sumMul2
	h = absorb(h, h0)
	h = absorb(h, h1)
	h = absorb(h, h2)
	h = absorb(h, h3)
	return mixOut(h)
}
