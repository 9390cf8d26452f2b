#include "textflag.h"

// MulSub and MinPlus share one loop nest over an n×n tile, at two widths: the
// AVX2 bodies run it in ymm (w = 4 words a vector) for n > 0 a multiple of 8,
// the AVX-512 ones in zmm (w = 8) for multiples of 16. SolveLower's, below,
// is the ymm nest with fewer p.
//
//	for r := 0; r < n; r += 4      // DI, SI: rows r of c and a; R10 rows left
//	  for q := 0; q < n; q += 2w   // BX: q in bytes
//	    V0..V7 = c[r..r+3][q..q+2w−1]
//	    for p := 0; p < n; p++     // R12: &a[r][p]; R13: &b[p][q]; AX p left
//	      V8, V9 = b[p][q..q+2w−1]
//	      each row i: V10 = a[r+i][p] in every lane, then two ops into V(2i), V(2i+1)
//	    c[r..r+3][q..q+2w−1] = V0..V7
//
// V being Y or Z. R8 is a row's stride in bytes, R9 three of them. BP is left
// alone. PROLOGUE, START_P, NEXT_P and NEXT_ROWS are the nest's at either
// width; the macros that name vector registers have a zmm twin, suffixed Z,
// with the same operations in the same operand order.

// s −= a·x over the two ymm halves of a row: Y10 = a in every lane, each
// product rounded before it is subtracted (no FMA).
#define AXPY(arow, x0, x1, s0, s1) \
	VBROADCASTSD arow, Y10; \
	VMULPD       x0, Y10, Y11; \
	VMULPD       x1, Y10, Y12; \
	VSUBPD       Y11, s0, s0; \
	VSUBPD       Y12, s1, s1

// Row i of MulSub: s −= a·b.
#define MULSUB_ROW(arow, s0, s1) AXPY(arow, Y8, Y9, s0, s1)

// Row i of MinPlus: v = a + b, then VMINPD with v as the first source and s
// as the second, which yields v only when v < s (else s: NaN and ±0 too),
// exactly `if v < s { s = v }`.
#define MINPLUS_ROW(arow, s0, s1) \
	VBROADCASTSD arow, Y10; \
	VADDPD       Y8, Y10, Y11; \
	VADDPD       Y9, Y10, Y12; \
	VMINPD       s0, Y11, s0; \
	VMINPD       s1, Y12, s1

#define PROLOGUE \
	MOVQ c+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ n+24(FP), CX; \
	MOVQ CX, R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9; \
	MOVQ CX, R10

// R12, R13 and AX for the p loop of the block at rows r, column BX.
#define START_P \
	MOVQ SI, R12; \
	LEAQ (DX)(BX*1), R13; \
	MOVQ CX, AX

#define LOAD_BLOCK \
	LEAQ    (DI)(BX*1), R11; \
	VMOVUPD (R11), Y0; \
	VMOVUPD 32(R11), Y1; \
	VMOVUPD (R11)(R8*1), Y2; \
	VMOVUPD 32(R11)(R8*1), Y3; \
	VMOVUPD (R11)(R8*2), Y4; \
	VMOVUPD 32(R11)(R8*2), Y5; \
	VMOVUPD (R11)(R9*1), Y6; \
	VMOVUPD 32(R11)(R9*1), Y7; \
	START_P

#define LOAD_B \
	VMOVUPD (R13), Y8; \
	VMOVUPD 32(R13), Y9

#define NEXT_P \
	ADDQ $8, R12; \
	ADDQ R8, R13; \
	DECQ AX

#define STORE_BLOCK \
	VMOVUPD Y0, (R11); \
	VMOVUPD Y1, 32(R11); \
	VMOVUPD Y2, (R11)(R8*1); \
	VMOVUPD Y3, 32(R11)(R8*1); \
	VMOVUPD Y4, (R11)(R8*2); \
	VMOVUPD Y5, 32(R11)(R8*2); \
	VMOVUPD Y6, (R11)(R9*1); \
	VMOVUPD Y7, 32(R11)(R9*1); \
	ADDQ    $64, BX

#define NEXT_ROWS \
	LEAQ (DI)(R8*4), DI; \
	LEAQ (SI)(R8*4), SI; \
	SUBQ $4, R10

// The zmm twins.
#define MULSUB_ROWZ(arow, s0, s1) \
	VBROADCASTSD arow, Z10; \
	VMULPD       Z8, Z10, Z11; \
	VMULPD       Z9, Z10, Z12; \
	VSUBPD       Z11, s0, s0; \
	VSUBPD       Z12, s1, s1

#define MINPLUS_ROWZ(arow, s0, s1) \
	VBROADCASTSD arow, Z10; \
	VADDPD       Z8, Z10, Z11; \
	VADDPD       Z9, Z10, Z12; \
	VMINPD       s0, Z11, s0; \
	VMINPD       s1, Z12, s1

#define LOAD_BLOCKZ \
	LEAQ    (DI)(BX*1), R11; \
	VMOVUPD (R11), Z0; \
	VMOVUPD 64(R11), Z1; \
	VMOVUPD (R11)(R8*1), Z2; \
	VMOVUPD 64(R11)(R8*1), Z3; \
	VMOVUPD (R11)(R8*2), Z4; \
	VMOVUPD 64(R11)(R8*2), Z5; \
	VMOVUPD (R11)(R9*1), Z6; \
	VMOVUPD 64(R11)(R9*1), Z7; \
	START_P

#define LOAD_BZ \
	VMOVUPD (R13), Z8; \
	VMOVUPD 64(R13), Z9

#define STORE_BLOCKZ \
	VMOVUPD Z0, (R11); \
	VMOVUPD Z1, 64(R11); \
	VMOVUPD Z2, (R11)(R8*1); \
	VMOVUPD Z3, 64(R11)(R8*1); \
	VMOVUPD Z4, (R11)(R8*2); \
	VMOVUPD Z5, 64(R11)(R8*2); \
	VMOVUPD Z6, (R11)(R9*1); \
	VMOVUPD Z7, 64(R11)(R9*1); \
	ADDQ    $128, BX

// func mulSubAVX2(c, a, b *float64, n int)
TEXT ·mulSubAVX2(SB), NOSPLIT, $0-32
	PROLOGUE

mulsubRows:
	XORQ BX, BX

mulsubCols:
	LOAD_BLOCK

mulsubP:
	LOAD_B
	MULSUB_ROW((R12), Y0, Y1)
	MULSUB_ROW((R12)(R8*1), Y2, Y3)
	MULSUB_ROW((R12)(R8*2), Y4, Y5)
	MULSUB_ROW((R12)(R9*1), Y6, Y7)
	NEXT_P
	JNZ mulsubP

	STORE_BLOCK
	CMPQ BX, R8
	JLT  mulsubCols

	NEXT_ROWS
	JNZ mulsubRows

	VZEROUPPER
	RET

// func minPlusAVX2(c, a, b *float64, n int)
TEXT ·minPlusAVX2(SB), NOSPLIT, $0-32
	PROLOGUE

minplusRows:
	XORQ BX, BX

minplusCols:
	LOAD_BLOCK

minplusP:
	LOAD_B
	MINPLUS_ROW((R12), Y0, Y1)
	MINPLUS_ROW((R12)(R8*1), Y2, Y3)
	MINPLUS_ROW((R12)(R8*2), Y4, Y5)
	MINPLUS_ROW((R12)(R9*1), Y6, Y7)
	NEXT_P
	JNZ minplusP

	STORE_BLOCK
	CMPQ BX, R8
	JLT  minplusCols

	NEXT_ROWS
	JNZ minplusRows

	VZEROUPPER
	RET

// func mulSubAVX512(c, a, b *float64, n int)
TEXT ·mulSubAVX512(SB), NOSPLIT, $0-32
	PROLOGUE

mulsubRows:
	XORQ BX, BX

mulsubCols:
	LOAD_BLOCKZ

mulsubP:
	LOAD_BZ
	MULSUB_ROWZ((R12), Z0, Z1)
	MULSUB_ROWZ((R12)(R8*1), Z2, Z3)
	MULSUB_ROWZ((R12)(R8*2), Z4, Z5)
	MULSUB_ROWZ((R12)(R9*1), Z6, Z7)
	NEXT_P
	JNZ mulsubP

	STORE_BLOCKZ
	CMPQ BX, R8
	JLT  mulsubCols

	NEXT_ROWS
	JNZ mulsubRows

	VZEROUPPER
	RET

// func minPlusAVX512(c, a, b *float64, n int)
TEXT ·minPlusAVX512(SB), NOSPLIT, $0-32
	PROLOGUE

minplusRows:
	XORQ BX, BX

minplusCols:
	LOAD_BLOCKZ

minplusP:
	LOAD_BZ
	MINPLUS_ROWZ((R12), Z0, Z1)
	MINPLUS_ROWZ((R12)(R8*1), Z2, Z3)
	MINPLUS_ROWZ((R12)(R8*2), Z4, Z5)
	MINPLUS_ROWZ((R12)(R9*1), Z6, Z7)
	NEXT_P
	JNZ minplusP

	STORE_BLOCKZ
	CMPQ BX, R8
	JLT  minplusCols

	NEXT_ROWS
	JNZ minplusRows

	VZEROUPPER
	RET

// SolveLower's body runs MulSub's loop nest with b = c itself, over the
// rows above the block only, then the block's own 4×4 triangle in register:
//
//	for r := 0; r < n; r += 4      // DI, SI: rows r of c and l; R14 = r
//	  for q := 0; q < n; q += 8
//	    Y0..Y7 = c[r..r+3][q..q+7]
//	    for p := 0; p < r; p++     // rows p of c are finished
//	      row i: Y(2i), Y(2i+1) −= l[r+i][p]·c[p][q..q+7]
//	    row i, in turn: divide by l[r+i][r+i] (unless unit), then rows
//	      j > i: Y(2j), Y(2j+1) −= l[r+j][r+i]·Y(2i), Y(2i+1)
//	    c[r..r+3][q..q+7] = Y0..Y7
//
// which gives each element its textbook terms in ascending p, then its
// division. After the p loop R12 is &l[r][r], the triangle's corner.

// Row i of the block: divide by l[r+i][r+i], rounded once.
#define DIV_ROW(diag, s0, s1) \
	VBROADCASTSD diag, Y10; \
	VDIVPD       Y10, s0, s0; \
	VDIVPD       Y10, s1, s1

// Rows 1, 2 and 3 of the triangle take the terms of the rows above them.
#define TRI_ROW1 \
	AXPY((R12)(R8*1), Y0, Y1, Y2, Y3)

#define TRI_ROW2 \
	AXPY((R12)(R8*2), Y0, Y1, Y4, Y5); \
	AXPY(8(R12)(R8*2), Y2, Y3, Y4, Y5)

#define TRI_ROW3 \
	AXPY((R12)(R9*1), Y0, Y1, Y6, Y7); \
	AXPY(8(R12)(R9*1), Y2, Y3, Y6, Y7); \
	AXPY(16(R12)(R9*1), Y4, Y5, Y6, Y7)

// func solveLowerAVX2(c, l *float64, n int, unit bool)
TEXT ·solveLowerAVX2(SB), NOSPLIT, $0-25
	MOVQ c+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ DI, DX
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ CX, R10
	XORQ R14, R14

solveRows:
	XORQ BX, BX

solveCols:
	LOAD_BLOCK
	MOVQ  R14, AX
	TESTQ AX, AX
	JZ    solveTri

solveP:
	LOAD_B
	MULSUB_ROW((R12), Y0, Y1)
	MULSUB_ROW((R12)(R8*1), Y2, Y3)
	MULSUB_ROW((R12)(R8*2), Y4, Y5)
	MULSUB_ROW((R12)(R9*1), Y6, Y7)
	NEXT_P
	JNZ solveP

solveTri:
	CMPB unit+24(FP), $0
	JNE  solveUnit
	DIV_ROW((R12), Y0, Y1)
	TRI_ROW1
	DIV_ROW(8(R12)(R8*1), Y2, Y3)
	TRI_ROW2
	DIV_ROW(16(R12)(R8*2), Y4, Y5)
	TRI_ROW3
	DIV_ROW(24(R12)(R9*1), Y6, Y7)
	JMP  solveStore

solveUnit:
	TRI_ROW1
	TRI_ROW2
	TRI_ROW3

solveStore:
	STORE_BLOCK
	CMPQ BX, R8
	JLT  solveCols

	ADDQ $4, R14
	NEXT_ROWS
	JNZ solveRows

	VZEROUPPER
	RET

// Transpose's body swaps 4×4 blocks in pairs across the diagonal, each
// block transposed in register by two unpacks and two lane permutes per pair
// of rows. Both blocks of a pair are loaded before either is stored, so dst
// may be src; a diagonal block is its own pair.
//
//	for r := 0; r < n; r += 4      // SI, DI: &src[r][r], &dst[r][r]; R10 rows left
//	  for q := r; q < n; q += 4    // AX blocks left
//	    A = src[r..r+3][q..q+3]    // R11
//	    B = src[q..q+3][r..r+3]    // R12
//	    dst[q..q+3][r..r+3] = Aᵀ   // R13
//	    dst[r..r+3][q..q+3] = Bᵀ   // R14

// Load the four rows of a block at src into a0..a3.
#define LOAD4(src, a0, a1, a2, a3) \
	VMOVUPD (src), a0; \
	VMOVUPD (src)(R8*1), a1; \
	VMOVUPD (src)(R8*2), a2; \
	VMOVUPD (src)(R9*1), a3

// Transpose the 4×4 block in a0..a3 through t0..t3.
#define TRANSPOSE4(a0, a1, a2, a3, t0, t1, t2, t3) \
	VUNPCKLPD  a1, a0, t0; \
	VUNPCKHPD  a1, a0, t1; \
	VUNPCKLPD  a3, a2, t2; \
	VUNPCKHPD  a3, a2, t3; \
	VPERM2F128 $0x20, t2, t0, a0; \
	VPERM2F128 $0x20, t3, t1, a1; \
	VPERM2F128 $0x31, t2, t0, a2; \
	VPERM2F128 $0x31, t3, t1, a3

// Store a0..a3 as the four rows of a block at dst.
#define STORE4(dst, a0, a1, a2, a3) \
	VMOVUPD a0, (dst); \
	VMOVUPD a1, (dst)(R8*1); \
	VMOVUPD a2, (dst)(R8*2); \
	VMOVUPD a3, (dst)(R9*1)

// func transposeAVX2(dst, src *float64, n int)
TEXT ·transposeAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ CX, R10

transposeRows:
	MOVQ SI, R11
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ DI, R14
	MOVQ R10, AX
	SHRQ $2, AX

transposeBlocks:
	LOAD4(R11, Y0, Y1, Y2, Y3)
	LOAD4(R12, Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	STORE4(R13, Y0, Y1, Y2, Y3)
	STORE4(R14, Y4, Y5, Y6, Y7)
	ADDQ $32, R11
	LEAQ (R12)(R8*4), R12
	LEAQ (R13)(R8*4), R13
	ADDQ $32, R14
	DECQ AX
	JNZ  transposeBlocks

	LEAQ 32(SI)(R8*4), SI
	LEAQ 32(DI)(R8*4), DI
	SUBQ $4, R10
	JNZ  transposeRows

	VZEROUPPER
	RET

// SmithWaterman's body runs a row at a time, eight int32 lanes per step:
//
//	for r := 0; r < n; r++          // DI: &h[r][0]; DX: &left[r]; R8: &xs[r]; R10 rows left
//	  m = left[r] − gap             // Y6, in every lane
//	  for c := 0; c < n; c += 8     // R11: c
//	    U = up[c..c+7]; D = up[c−1..c+6], up[−1] being corner or left[r−1]
//	    E = max(D + s, U − gap, 0)  // s: match where ys[c+i] == xs[r], else mismatch
//	    P = max(m, prefix max of E + gap·(c+i)); m = P[7]
//	    h[r][c..c+7] = P − gap·(c+i); best = max(best, h[r][c..c+7])
//
// The left term: h[c] = max(E[c], h[c−1] − gap) unrolls to h[c] + gap·c =
// max over k ≤ c of E[k] + gap·k, and over left[r] − gap, a prefix max. E ≥ 0
// and gap ≥ 0, so the in-register scan may shift in zeros.
//
// The row above is kept as int32 in the second half of row r's own float64
// words (SI = DI + 4n), with up[−1] in the word before it; row r stores its
// cells there for row r+1 (R13 = SI + 8n) before that row's float64s exist,
// and the prologue stores top there for row 0 (top may be the last row).
// A row's float64 stores reach an int32 word of its own only after the step
// that reads it. Cells leave as float64 through VCVTDQ2PD, exact on integers.
//
// Before any row, every word of top and left must be an integer within
// ±swBound: it must survive VCVTTPD2DQ and VCVTDQ2PD, and its magnitude must
// not exceed the bound, or the body returns ok = false having written nothing
// but row 0's second half.
//
// Y15 0, Y14 match − mismatch, Y13 mismatch, Y12 gap, Y11 best, Y10 gap·(c+i),
// Y9 8·gap, Y8 gap·i, Y7 xs[r], Y4 and Y3 the VPERMD indices; Y0..Y2 scratch.

DATA swLanes<>+0(SB)/8, $0x0000000100000000
DATA swLanes<>+8(SB)/8, $0x0000000300000002
DATA swLanes<>+16(SB)/8, $0x0000000500000004
DATA swLanes<>+24(SB)/8, $0x0000000700000006
GLOBL swLanes<>(SB), RODATA|NOPTR, $32

// VPERMD by swHalf carries lane 3 into lanes 4..7.
DATA swHalf<>+0(SB)/8, $0x0000000100000000
DATA swHalf<>+8(SB)/8, $0x0000000300000002
DATA swHalf<>+16(SB)/8, $0x0000000300000003
DATA swHalf<>+24(SB)/8, $0x0000000300000003
GLOBL swHalf<>(SB), RODATA|NOPTR, $32

DATA swAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL swAbs<>(SB), RODATA|NOPTR, $8

// swBound as a float64: 2²⁹.
DATA swLimit<>+0(SB)/8, $0x41c0000000000000
GLOBL swLimit<>(SB), RODATA|NOPTR, $8

// Check four boundary words at src, their int32 truncations in X1: Y5 gathers
// the lanes that are no integer within ±swBound. Y2 holds swAbs, Y3 swLimit.
#define SW_CHECK(src) \
	VMOVUPD     src, Y0; \
	VCVTTPD2DQY Y0, X1; \
	VCVTDQ2PD   X1, Y4; \
	VCMPPD      $4, Y4, Y0, Y4; \
	VANDPD      Y2, Y0, Y0; \
	VCMPPD      $0x1e, Y3, Y0, Y0; \
	VORPD       Y4, Y5, Y5; \
	VORPD       Y0, Y5, Y5

// One step's eight cells, left in Y0 and raised into best.
#define SW_CELLS \
	VMOVDQU   (SI)(R11*4), Y0; \
	VMOVDQU   -4(SI)(R11*4), Y2; \
	VPSUBD    Y12, Y0, Y0; \
	VPMOVZXBD (R9)(R11*1), Y1; \
	VPCMPEQD  Y7, Y1, Y1; \
	VPAND     Y14, Y1, Y1; \
	VPADDD    Y13, Y1, Y1; \
	VPADDD    Y1, Y2, Y2; \
	VPMAXSD   Y2, Y0, Y0; \
	VPMAXSD   Y15, Y0, Y0; \
	VPADDD    Y10, Y0, Y0; \
	VPSLLQ    $32, Y0, Y1; \
	VPMAXSD   Y1, Y0, Y0; \
	VPSHUFD   $0x54, Y0, Y1; \
	VPMAXSD   Y1, Y0, Y0; \
	VPERMD    Y0, Y4, Y1; \
	VPMAXSD   Y1, Y0, Y0; \
	VPMAXSD   Y6, Y0, Y0; \
	VPERMD    Y0, Y3, Y6; \
	VPSUBD    Y10, Y0, Y0; \
	VPMAXSD   Y0, Y11, Y11

// Store the step's cells as float64 and move to the next step.
#define SW_STORE \
	VCVTDQ2PD    X0, Y1; \
	VMOVUPD      Y1, (DI)(R11*8); \
	VEXTRACTI128 $1, Y0, X2; \
	VCVTDQ2PD    X2, Y2; \
	VMOVUPD      Y2, 32(DI)(R11*8); \
	VPADDD       Y9, Y10, Y10; \
	ADDQ         $8, R11; \
	CMPQ         R11, CX

// Row r's setup: xs[r] in Y7, up[−1] = AX, then AX = left[r] and m.
#define SW_ROW \
	MOVBLZX      (R8), BX; \
	VMOVD        BX, X7; \
	VPBROADCASTD X7, Y7; \
	MOVL         AX, -4(SI); \
	VCVTTSD2SI   (DX), AX; \
	VMOVD        AX, X6; \
	VPBROADCASTD X6, Y6; \
	VPSUBD       Y12, Y6, Y6; \
	VMOVDQU      Y8, Y10; \
	XORQ         R11, R11

// func swAVX2(h, top, left *float64, xs, ys *byte, n, corner, match, mismatch, gap int) (best int, ok bool)
TEXT ·swAVX2(SB), NOSPLIT, $0-89
	MOVQ h+0(FP), DI
	MOVQ top+8(FP), SI
	MOVQ left+16(FP), DX
	MOVQ xs+24(FP), R8
	MOVQ ys+32(FP), R9
	MOVQ n+40(FP), CX

	// top, checked and as int32 into row 0's second half; then left, checked.
	VBROADCASTSD swAbs<>(SB), Y2
	VBROADCASTSD swLimit<>(SB), Y3
	VXORPD       Y5, Y5, Y5
	LEAQ         (DI)(CX*4), R13
	XORQ         R11, R11

swTop:
	SW_CHECK((SI)(R11*8))
	VMOVDQU X1, (R13)(R11*4)
	SW_CHECK(32(SI)(R11*8))
	VMOVDQU X1, 16(R13)(R11*4)
	ADDQ    $8, R11
	CMPQ    R11, CX
	JLT     swTop

	XORQ R11, R11

swLeft:
	SW_CHECK((DX)(R11*8))
	SW_CHECK(32(DX)(R11*8))
	ADDQ $8, R11
	CMPQ R11, CX
	JLT  swLeft

	VPTEST Y5, Y5
	JZ     swFits
	MOVQ   $0, best+80(FP)
	MOVB   $0, ok+88(FP)
	VZEROUPPER
	RET

swFits:
	MOVQ corner+48(FP), AX

	MOVQ         gap+72(FP), BX
	VMOVD        BX, X12
	VPBROADCASTD X12, Y12
	MOVQ         mismatch+64(FP), BX
	VMOVD        BX, X13
	VPBROADCASTD X13, Y13
	MOVQ         match+56(FP), R12
	SUBQ         BX, R12
	VMOVD        R12, X14
	VPBROADCASTD X14, Y14
	VPXOR        Y15, Y15, Y15
	VPXOR        Y11, Y11, Y11
	VMOVDQU      swLanes<>(SB), Y8
	VPMULLD      Y12, Y8, Y8
	VPSLLD       $3, Y12, Y9
	VMOVDQU      swHalf<>(SB), Y4
	MOVL         $7, BX
	VMOVD        BX, X3
	VPBROADCASTD X3, Y3
	MOVQ         CX, R10
	LEAQ         (CX*8), R12
	MOVQ         R13, SI
	ADDQ         R12, R13

swRows:
	SW_ROW
	CMPQ R10, $1
	JEQ  swLast

swCols:
	SW_CELLS
	VMOVDQU Y0, (R13)(R11*4)
	SW_STORE
	JLT     swCols

	ADDQ R12, DI
	ADDQ R12, SI
	ADDQ R12, R13
	ADDQ $8, DX
	INCQ R8
	DECQ R10
	JMP  swRows

swLast:
	SW_CELLS
	SW_STORE
	JLT swLast

	VEXTRACTI128 $1, Y11, X0
	VPMAXSD      X0, X11, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXSD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXSD      X1, X0, X0
	VMOVD        X0, AX
	MOVQ         AX, best+80(FP)
	MOVB         $1, ok+88(FP)
	VZEROUPPER
	RET
