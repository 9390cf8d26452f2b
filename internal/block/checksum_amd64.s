#include "textflag.h"

// digestsAVX2 and digestsAVX512 hash a payload one segment at a time:
//
//	for each segment         // BX: words after this segment; CX: words left in it
//	  lanes = segSeeds       // AVX2: Y0..Y7; AVX-512: Z0..Z3; lane j in register j/4 or j/8
//	  while CX >= 32         // a whole stripe: copied to DI when DI != 0,
//	    lane j = step(lane j, word j)    // then each lane takes its word
//	  the CX < 32 words left: the same, masked to lanes 0..CX-1
//	  fold the lanes by halves; *R8++ = lane 0
//
// SI and DI are the next word to hash and to copy to, R8 the next digest.
// Only X0–X15 and their wider forms are used, all through VEX or EVEX
// instructions, and VZEROUPPER ends each body.

// h = rotl(h, 29) ^ w, with t scratch.
#define ROTXOR(h, w, t) \
	VPSLLQ $29, h, t; \
	VPSRLQ $35, h, h; \
	VPOR   t, h, h; \
	VPXOR  w, h, h

// x = x·m mod 2⁶⁴ in each lane, where lo holds m and hi holds m>>32 in every
// lane: VPMULUDQ multiplies the low 32 bits of its operands' lanes, and
// x·m = lo(x)·lo(m) + (hi(x)·lo(m) + lo(x)·hi(m))<<32 mod 2⁶⁴.
#define MUL(x, lo, hi, t0, t1) \
	VPSRLQ   $32, x, t0; \
	VPMULUDQ lo, t0, t0; \
	VPMULUDQ hi, x, t1; \
	VPADDQ   t1, t0, t0; \
	VPSLLQ   $32, t0, t0; \
	VPMULUDQ lo, x, x; \
	VPADDQ   t0, x, x

// One step of the four lanes in h over the words at off(SI). Y8 and Y9 hold
// sumMul and sumMul>>32.
#define STEP2(h, off) \
	ROTXOR(h, off(SI), Y11); \
	MUL(h, Y8, Y9, Y11, Y12)

// The same step, masked: Y13 = the masks at off(R11), all ones in the lanes
// that take a word; the others keep h.
#define TAIL2(h, off) \
	VMOVDQU    off(R11), Y13; \
	VPMASKMOVQ off(SI), Y13, Y10; \
	VPSLLQ     $29, h, Y11; \
	VPSRLQ     $35, h, Y12; \
	VPOR       Y11, Y12, Y12; \
	VPXOR      Y12, Y10, Y10; \
	MUL(Y10, Y8, Y9, Y11, Y12); \
	VBLENDVPD  Y13, Y10, h, h

#define COPY2(off) \
	VMOVDQU off(SI), Y10; \
	VMOVDQU Y10, off(DI)

#define COPYTAIL2(off) \
	VMOVDQU    off(R11), Y13; \
	VPMASKMOVQ off(SI), Y13, Y10; \
	VPMASKMOVQ Y10, Y13, off(DI)

// a ^= rotl(b, 29).
#define FOLD2(a, b) \
	VPSLLQ $29, b, Y11; \
	VPSRLQ $35, b, b; \
	VPOR   Y11, b, b; \
	VPXOR  b, a, a

// func digestsAVX2(dst, src *float64, n int, out *uint64)
TEXT ·digestsAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), BX
	MOVQ out+24(FP), R8
	LEAQ ·segSeeds(SB), R9
	MOVQ $0x9E3779B97F4A7C15, AX
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8
	SHRQ $32, AX
	VMOVQ AX, X9
	VPBROADCASTQ X9, Y9

seg2:
	VMOVDQU (R9), Y0
	VMOVDQU 32(R9), Y1
	VMOVDQU 64(R9), Y2
	VMOVDQU 96(R9), Y3
	VMOVDQU 128(R9), Y4
	VMOVDQU 160(R9), Y5
	VMOVDQU 192(R9), Y6
	VMOVDQU 224(R9), Y7
	MOVQ    $256, CX
	CMPQ    BX, CX
	CMOVQLT BX, CX
	SUBQ    CX, BX

stripe2:
	CMPQ  CX, $32
	JLT   tail2
	TESTQ DI, DI
	JZ    hash2
	COPY2(0)
	COPY2(32)
	COPY2(64)
	COPY2(96)
	COPY2(128)
	COPY2(160)
	COPY2(192)
	COPY2(224)
	ADDQ  $256, DI

hash2:
	STEP2(Y0, 0)
	STEP2(Y1, 32)
	STEP2(Y2, 64)
	STEP2(Y3, 96)
	STEP2(Y4, 128)
	STEP2(Y5, 160)
	STEP2(Y6, 192)
	STEP2(Y7, 224)
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  stripe2

tail2:
	TESTQ CX, CX
	JZ    fold2
	LEAQ  ·tailMask+256(SB), R11
	MOVQ  CX, AX
	SHLQ  $3, AX
	SUBQ  AX, R11
	TESTQ DI, DI
	JZ    tailhash2
	COPYTAIL2(0)
	COPYTAIL2(32)
	COPYTAIL2(64)
	COPYTAIL2(96)
	COPYTAIL2(128)
	COPYTAIL2(160)
	COPYTAIL2(192)
	COPYTAIL2(224)
	LEAQ  (DI)(CX*8), DI

tailhash2:
	TAIL2(Y0, 0)
	TAIL2(Y1, 32)
	TAIL2(Y2, 64)
	TAIL2(Y3, 96)
	TAIL2(Y4, 128)
	TAIL2(Y5, 160)
	TAIL2(Y6, 192)
	TAIL2(Y7, 224)
	LEAQ (SI)(CX*8), SI

fold2:
	FOLD2(Y0, Y4)
	FOLD2(Y1, Y5)
	FOLD2(Y2, Y6)
	FOLD2(Y3, Y7)
	FOLD2(Y0, Y2)
	FOLD2(Y1, Y3)
	FOLD2(Y0, Y1)
	VEXTRACTI128 $1, Y0, X1
	VMOVQ        X0, AX
	VPEXTRQ      $1, X0, DX
	VMOVQ        X1, R12
	VPEXTRQ      $1, X1, R13
	ROLQ         $29, R12
	XORQ         R12, AX
	ROLQ         $29, R13
	XORQ         R13, DX
	ROLQ         $29, DX
	XORQ         DX, AX
	MOVQ         AX, (R8)
	ADDQ         $8, R8
	TESTQ        BX, BX
	JNZ          seg2
	VZEROUPPER
	RET

// One step of the eight lanes in h over the words at off(SI). Z12 holds
// sumMul in every lane.
#define STEP512(h, off) \
	VPROLQ  $29, h, h; \
	VPXORQ  off(SI), h, h; \
	VPMULLQ Z12, h, h

// The same step over the words in w, written to the lanes of h that k masks.
#define TAIL512(h, w, k) \
	VPROLQ  $29, h, Z14; \
	VPXORQ  w, Z14, Z14; \
	VPMULLQ Z12, Z14, k, h

// a ^= rotl(b, 29).
#define FOLD512(a, b) \
	VPROLQ $29, b, b; \
	VPXORQ b, a, a

// Lanes 0..s-1 of Z0 take lanes s..2s-1 through FOLD512.
#define HALVE512(s) \
	VALIGNQ $s, Z0, Z0, Z1; \
	FOLD512(Z0, Z1)

// func digestsAVX512(dst, src *float64, n int, out *uint64)
TEXT ·digestsAVX512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), BX
	MOVQ         out+24(FP), R8
	LEAQ         ·segSeeds(SB), R9
	VMOVDQU64    (R9), Z8
	VMOVDQU64    64(R9), Z9
	VMOVDQU64    128(R9), Z10
	VMOVDQU64    192(R9), Z11
	MOVQ         $0x9E3779B97F4A7C15, AX
	VPBROADCASTQ AX, Z12

seg512:
	VMOVDQA64 Z8, Z0
	VMOVDQA64 Z9, Z1
	VMOVDQA64 Z10, Z2
	VMOVDQA64 Z11, Z3
	MOVQ      $256, CX
	CMPQ      BX, CX
	CMOVQLT   BX, CX
	SUBQ      CX, BX

stripe512:
	CMPQ      CX, $32
	JLT       tail512
	TESTQ     DI, DI
	JZ        hash512
	VMOVDQU64 (SI), Z4
	VMOVDQU64 64(SI), Z5
	VMOVDQU64 128(SI), Z6
	VMOVDQU64 192(SI), Z7
	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z5, 64(DI)
	VMOVDQU64 Z6, 128(DI)
	VMOVDQU64 Z7, 192(DI)
	ADDQ      $256, DI

hash512:
	STEP512(Z0, 0)
	STEP512(Z1, 64)
	STEP512(Z2, 128)
	STEP512(Z3, 192)
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  stripe512

tail512:
	TESTQ       CX, CX
	JZ          fold512
	MOVQ        $1, AX
	SHLQ        CX, AX
	DECQ        AX
	KMOVW       AX, K1
	SHRQ        $8, AX
	KMOVW       AX, K2
	SHRQ        $8, AX
	KMOVW       AX, K3
	SHRQ        $8, AX
	KMOVW       AX, K4
	VMOVDQU64.Z (SI), K1, Z4
	VMOVDQU64.Z 64(SI), K2, Z5
	VMOVDQU64.Z 128(SI), K3, Z6
	VMOVDQU64.Z 192(SI), K4, Z7
	TESTQ       DI, DI
	JZ          tailhash512
	VMOVDQU64   Z4, K1, (DI)
	VMOVDQU64   Z5, K2, 64(DI)
	VMOVDQU64   Z6, K3, 128(DI)
	VMOVDQU64   Z7, K4, 192(DI)
	LEAQ        (DI)(CX*8), DI

tailhash512:
	TAIL512(Z0, Z4, K1)
	TAIL512(Z1, Z5, K2)
	TAIL512(Z2, Z6, K3)
	TAIL512(Z3, Z7, K4)
	LEAQ (SI)(CX*8), SI

fold512:
	FOLD512(Z0, Z2)
	FOLD512(Z1, Z3)
	FOLD512(Z0, Z1)
	HALVE512(4)
	HALVE512(2)
	HALVE512(1)
	VMOVQ X0, (R8)
	ADDQ  $8, R8
	TESTQ BX, BX
	JNZ   seg512
	VZEROUPPER
	RET
