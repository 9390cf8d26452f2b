#include "textflag.h"

// The two kernels share one loop nest over an n×n tile, n > 0 a multiple
// of 8:
//
//	for r := 0; r < n; r += 4      // DI, SI: rows r of c and a; R10 rows left
//	  for q := 0; q < n; q += 8    // BX: q in bytes
//	    Y0..Y7 = c[r..r+3][q..q+7]
//	    for p := 0; p < n; p++     // R12: &a[r][p]; R13: &b[p][q]; AX p left
//	      Y8, Y9 = b[p][q..q+7]
//	      each row i: Y10 = a[r+i][p] in every lane, then two ops into Y(2i), Y(2i+1)
//	    c[r..r+3][q..q+7] = Y0..Y7
//
// R8 is a row's stride in bytes, R9 three of them. BP is left alone.

// Row i of MulSub: s −= a·b, the product rounded first (no FMA).
#define MULSUB_ROW(arow, s0, s1) \
	VBROADCASTSD arow, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VSUBPD       Y11, s0, s0; \
	VSUBPD       Y12, s1, s1

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
	MOVQ    SI, R12; \
	LEAQ    (DX)(BX*1), R13; \
	MOVQ    CX, AX

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

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
