#include "textflag.h"

// Micro-kernels for the GEMM engine (see gemm.go for the accumulation-order
// contract). The matrix-panel kernels take
//
//	(kc int64, a *float32, lda int64, b *float32, ldb int64, c *float32, ldc int64,
//	 bias, scale, shift *float32, relu int64)
//
// with strides in bytes and compute, for r in [0, mr) and the nr lanes j of a
// row, c[r][j] += a[r][p] * b[p][j] for p = 0..kc-1: one VMULPS and one
// VADDPS per (r, p, vector), never an FMA — SIMD lanes are independent output
// elements, so each element accumulates in strict p order with one multiply
// and one add rounding per term, bitwise identical to the scalar reference
// mulAddTileGo. The last four arguments are the two ends of a tile's depth
// (tileEnds in gemm.go), each pointer mr floats or nil: with bias the
// accumulators of row r start as a broadcast of bias[r] and c is not read;
// with scale and shift they are multiplied by scale[r] and then increased by
// shift[r] before the store (again a VMULPS and a VADDPS); with relu they are
// then clamped by MAXPS(src1 = 0, src2 = accumulator), see clampRowAVX.
// Dispatch in gemm_amd64.go verifies CPU and OS support before any of them
// runs.

// func gemmKernel8x32(kc int64, a *float32, lda int64, b *float32, ldb int64, c *float32, ldc int64, bias, scale, shift *float32, relu int64)
//
// AVX-512F, 8 rows × 32 columns: sixteen zmm accumulators (row r in Z(2r),
// Z(2r+1)), two 64-byte loads of B and eight broadcasts of A per depth step.
// The 32 multiply and add µops of a step keep both 512-bit ports busy for 16
// cycles, which is the no-FMA peak.
TEXT ·gemmKernel8x32(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), DX
	MOVQ b+24(FP), BX
	MOVQ ldb+32(FP), SI
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), R8
	LEAQ (DX)(DX*2), R9
	LEAQ (DX)(DX*4), R10
	LEAQ (R9)(DX*4), R11
	MOVQ bias+56(FP), R13
	TESTQ R13, R13
	JNZ  frombias
	MOVQ DI, R12
	VMOVUPS (R12), Z0
	VMOVUPS 64(R12), Z1
	ADDQ R8, R12
	VMOVUPS (R12), Z2
	VMOVUPS 64(R12), Z3
	ADDQ R8, R12
	VMOVUPS (R12), Z4
	VMOVUPS 64(R12), Z5
	ADDQ R8, R12
	VMOVUPS (R12), Z6
	VMOVUPS 64(R12), Z7
	ADDQ R8, R12
	VMOVUPS (R12), Z8
	VMOVUPS 64(R12), Z9
	ADDQ R8, R12
	VMOVUPS (R12), Z10
	VMOVUPS 64(R12), Z11
	ADDQ R8, R12
	VMOVUPS (R12), Z12
	VMOVUPS 64(R12), Z13
	ADDQ R8, R12
	VMOVUPS (R12), Z14
	VMOVUPS 64(R12), Z15
	JMP  depth
frombias:
	VBROADCASTSS (R13), Z0
	VMOVAPS Z0, Z1
	VBROADCASTSS 4(R13), Z2
	VMOVAPS Z2, Z3
	VBROADCASTSS 8(R13), Z4
	VMOVAPS Z4, Z5
	VBROADCASTSS 12(R13), Z6
	VMOVAPS Z6, Z7
	VBROADCASTSS 16(R13), Z8
	VMOVAPS Z8, Z9
	VBROADCASTSS 20(R13), Z10
	VMOVAPS Z10, Z11
	VBROADCASTSS 24(R13), Z12
	VMOVAPS Z12, Z13
	VBROADCASTSS 28(R13), Z14
	VMOVAPS Z14, Z15
depth:
	TESTQ CX, CX
	JZ   affine
loop:
	VMOVUPS (BX), Z16
	VMOVUPS 64(BX), Z17
	VBROADCASTSS (AX), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z0, Z0
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z1, Z1
	VBROADCASTSS (AX)(DX*1), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z2, Z2
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z3, Z3
	VBROADCASTSS (AX)(DX*2), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z4, Z4
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z5, Z5
	VBROADCASTSS (AX)(R9*1), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z6, Z6
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z7, Z7
	VBROADCASTSS (AX)(DX*4), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z8, Z8
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z9, Z9
	VBROADCASTSS (AX)(R10*1), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z10, Z10
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z11, Z11
	VBROADCASTSS (AX)(R9*2), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z12, Z12
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z13, Z13
	VBROADCASTSS (AX)(R11*1), Z18
	VMULPS Z16, Z18, Z19
	VADDPS Z19, Z14, Z14
	VMULPS Z17, Z18, Z20
	VADDPS Z20, Z15, Z15
	ADDQ $4, AX
	ADDQ SI, BX
	DECQ CX
	JNZ  loop
affine:
	MOVQ scale+64(FP), R13
	TESTQ R13, R13
	JZ   clamp
	MOVQ shift+72(FP), R14
	VBROADCASTSS (R13), Z16
	VBROADCASTSS (R14), Z17
	VMULPS Z16, Z0, Z0
	VMULPS Z16, Z1, Z1
	VADDPS Z17, Z0, Z0
	VADDPS Z17, Z1, Z1
	VBROADCASTSS 4(R13), Z16
	VBROADCASTSS 4(R14), Z17
	VMULPS Z16, Z2, Z2
	VMULPS Z16, Z3, Z3
	VADDPS Z17, Z2, Z2
	VADDPS Z17, Z3, Z3
	VBROADCASTSS 8(R13), Z16
	VBROADCASTSS 8(R14), Z17
	VMULPS Z16, Z4, Z4
	VMULPS Z16, Z5, Z5
	VADDPS Z17, Z4, Z4
	VADDPS Z17, Z5, Z5
	VBROADCASTSS 12(R13), Z16
	VBROADCASTSS 12(R14), Z17
	VMULPS Z16, Z6, Z6
	VMULPS Z16, Z7, Z7
	VADDPS Z17, Z6, Z6
	VADDPS Z17, Z7, Z7
	VBROADCASTSS 16(R13), Z16
	VBROADCASTSS 16(R14), Z17
	VMULPS Z16, Z8, Z8
	VMULPS Z16, Z9, Z9
	VADDPS Z17, Z8, Z8
	VADDPS Z17, Z9, Z9
	VBROADCASTSS 20(R13), Z16
	VBROADCASTSS 20(R14), Z17
	VMULPS Z16, Z10, Z10
	VMULPS Z16, Z11, Z11
	VADDPS Z17, Z10, Z10
	VADDPS Z17, Z11, Z11
	VBROADCASTSS 24(R13), Z16
	VBROADCASTSS 24(R14), Z17
	VMULPS Z16, Z12, Z12
	VMULPS Z16, Z13, Z13
	VADDPS Z17, Z12, Z12
	VADDPS Z17, Z13, Z13
	VBROADCASTSS 28(R13), Z16
	VBROADCASTSS 28(R14), Z17
	VMULPS Z16, Z14, Z14
	VMULPS Z16, Z15, Z15
	VADDPS Z17, Z14, Z14
	VADDPS Z17, Z15, Z15
clamp:
	MOVQ relu+80(FP), R13
	TESTQ R13, R13
	JZ   store
	VPXORD Z16, Z16, Z16
	VMAXPS Z0, Z16, Z0
	VMAXPS Z1, Z16, Z1
	VMAXPS Z2, Z16, Z2
	VMAXPS Z3, Z16, Z3
	VMAXPS Z4, Z16, Z4
	VMAXPS Z5, Z16, Z5
	VMAXPS Z6, Z16, Z6
	VMAXPS Z7, Z16, Z7
	VMAXPS Z8, Z16, Z8
	VMAXPS Z9, Z16, Z9
	VMAXPS Z10, Z16, Z10
	VMAXPS Z11, Z16, Z11
	VMAXPS Z12, Z16, Z12
	VMAXPS Z13, Z16, Z13
	VMAXPS Z14, Z16, Z14
	VMAXPS Z15, Z16, Z15
store:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ R8, DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	ADDQ R8, DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	ADDQ R8, DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	ADDQ R8, DI
	VMOVUPS Z8, (DI)
	VMOVUPS Z9, 64(DI)
	ADDQ R8, DI
	VMOVUPS Z10, (DI)
	VMOVUPS Z11, 64(DI)
	ADDQ R8, DI
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, 64(DI)
	ADDQ R8, DI
	VMOVUPS Z14, (DI)
	VMOVUPS Z15, 64(DI)
	VZEROUPPER
	RET

// func gemmKernel4x16(kc int64, a *float32, lda int64, b *float32, ldb int64, c *float32, ldc int64, bias, scale, shift *float32, relu int64)
//
// AVX, 4 rows × 16 columns: eight ymm accumulators (row r in Y(2r), Y(2r+1)),
// two 32-byte loads of B and four broadcasts of A per depth step.
TEXT ·gemmKernel4x16(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), DX
	MOVQ b+24(FP), BX
	MOVQ ldb+32(FP), SI
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), R8
	LEAQ (DX)(DX*2), R9
	MOVQ bias+56(FP), R13
	TESTQ R13, R13
	JNZ  frombias
	MOVQ DI, R12
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	ADDQ R8, R12
	VMOVUPS (R12), Y2
	VMOVUPS 32(R12), Y3
	ADDQ R8, R12
	VMOVUPS (R12), Y4
	VMOVUPS 32(R12), Y5
	ADDQ R8, R12
	VMOVUPS (R12), Y6
	VMOVUPS 32(R12), Y7
	JMP  depth
frombias:
	VBROADCASTSS (R13), Y0
	VMOVAPS Y0, Y1
	VBROADCASTSS 4(R13), Y2
	VMOVAPS Y2, Y3
	VBROADCASTSS 8(R13), Y4
	VMOVAPS Y4, Y5
	VBROADCASTSS 12(R13), Y6
	VMOVAPS Y6, Y7
depth:
	TESTQ CX, CX
	JZ   affine
loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (AX), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y1, Y1
	VBROADCASTSS (AX)(DX*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y2, Y2
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y3, Y3
	VBROADCASTSS (AX)(DX*2), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y4, Y4
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y5, Y5
	VBROADCASTSS (AX)(R9*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y6, Y6
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y7, Y7
	ADDQ $4, AX
	ADDQ SI, BX
	DECQ CX
	JNZ  loop
affine:
	MOVQ scale+64(FP), R13
	TESTQ R13, R13
	JZ   clamp
	MOVQ shift+72(FP), R14
	VBROADCASTSS (R13), Y8
	VBROADCASTSS (R14), Y9
	VMULPS Y8, Y0, Y0
	VMULPS Y8, Y1, Y1
	VADDPS Y9, Y0, Y0
	VADDPS Y9, Y1, Y1
	VBROADCASTSS 4(R13), Y8
	VBROADCASTSS 4(R14), Y9
	VMULPS Y8, Y2, Y2
	VMULPS Y8, Y3, Y3
	VADDPS Y9, Y2, Y2
	VADDPS Y9, Y3, Y3
	VBROADCASTSS 8(R13), Y8
	VBROADCASTSS 8(R14), Y9
	VMULPS Y8, Y4, Y4
	VMULPS Y8, Y5, Y5
	VADDPS Y9, Y4, Y4
	VADDPS Y9, Y5, Y5
	VBROADCASTSS 12(R13), Y8
	VBROADCASTSS 12(R14), Y9
	VMULPS Y8, Y6, Y6
	VMULPS Y8, Y7, Y7
	VADDPS Y9, Y6, Y6
	VADDPS Y9, Y7, Y7
clamp:
	MOVQ relu+80(FP), R13
	TESTQ R13, R13
	JZ   store
	VXORPS Y8, Y8, Y8
	VMAXPS Y0, Y8, Y0
	VMAXPS Y1, Y8, Y1
	VMAXPS Y2, Y8, Y2
	VMAXPS Y3, Y8, Y3
	VMAXPS Y4, Y8, Y4
	VMAXPS Y5, Y8, Y5
	VMAXPS Y6, Y8, Y6
	VMAXPS Y7, Y8, Y7
store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemvKernel4x8(k int64, w0, w1, w2, w3, x, out *float32)
//
// For r in 0..3: out[r] += laneReduce(w_r .* x) over k terms (k ≡ 0 mod 8):
// lane q accumulates terms q, q+8, ...; lanes fold high-half onto low, then
// pairwise via HADDPS — the fixed tree ((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))
// stated in laneDotAcc.
TEXT ·gemvKernel4x8(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ w0+8(FP), AX
	MOVQ w1+16(FP), R9
	MOVQ w2+24(FP), R10
	MOVQ w3+32(FP), R11
	MOVQ x+40(FP), BX
	MOVQ out+48(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ R13, R13
loop:
	TESTQ CX, CX
	JZ    done
	VMOVUPS (BX)(R13*4), Y5
	VMOVUPS (AX)(R13*4), Y6
	VMULPS Y5, Y6, Y6
	VADDPS Y6, Y0, Y0
	VMOVUPS (R9)(R13*4), Y6
	VMULPS Y5, Y6, Y6
	VADDPS Y6, Y1, Y1
	VMOVUPS (R10)(R13*4), Y6
	VMULPS Y5, Y6, Y6
	VADDPS Y6, Y2, Y2
	VMOVUPS (R11)(R13*4), Y6
	VMULPS Y5, Y6, Y6
	VADDPS Y6, Y3, Y3
	ADDQ $8, R13
	SUBQ $8, CX
	JMP  loop
done:
	VEXTRACTF128 $1, Y0, X5
	VADDPS X5, X0, X0
	VEXTRACTF128 $1, Y1, X5
	VADDPS X5, X1, X1
	VEXTRACTF128 $1, Y2, X5
	VADDPS X5, X2, X2
	VEXTRACTF128 $1, Y3, X5
	VADDPS X5, X3, X3
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3
	VMOVSS (DI), X6
	VADDSS X0, X6, X6
	VMOVSS X6, (DI)
	VMOVSS 4(DI), X6
	VADDSS X1, X6, X6
	VMOVSS X6, 4(DI)
	VMOVSS 8(DI), X6
	VADDSS X2, X6, X6
	VMOVSS X6, 8(DI)
	VMOVSS 12(DI), X6
	VADDSS X3, X6, X6
	VMOVSS X6, 12(DI)
	VZEROUPPER
	RET

// Row helpers (see gemm.go for their per-element statements). All are AVX,
// eight lanes to a step, and take n, a positive multiple of 8.
//
// MAXPS is not commutative: where either operand is a NaN or both are zeros
// it returns its second source operand, which in this syntax is the one
// written first. Both uses below lean on that.

// func clampRowAVX(n int64, dst, src *float32)
//
// dst[i] = MAXPS(src1 = 0, src2 = src[i]): src[i] wherever it is a NaN or a
// zero of either sign, the larger of 0 and src[i] elsewhere — the statement
// `if v < 0 { v = 0 }`.
TEXT ·clampRowAVX(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	VXORPS Y1, Y1, Y1
loop:
	VMOVUPS (SI), Y0
	VMAXPS Y0, Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// func maxRowAVX(n int64, dst, src *float32)
//
// dst[i] = src[i] where src[i] > dst[i]: MAXPS(src1 = tap, src2 = running
// maximum) keeps the running maximum wherever the tap is a NaN or both are
// zeros and takes the larger elsewhere — the statement
// `if v > best { best = v }` for a best that is never a NaN.
TEXT ·maxRowAVX(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
loop:
	VMOVUPS (SI), Y0
	VMAXPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// EVENS8 loads the eight even-indexed floats of the sixteen at (SI) into Y0:
// floats 0-3 and 8-11 into the two halves of Y0, 4-7 and 12-15 into Y1, then
// elements 0 and 2 of each half of each (AVX has no shuffle across halves).
#define EVENS8 \
	VMOVUPS (SI), X0 \
	VINSERTF128 $1, 32(SI), Y0, Y0 \
	VMOVUPS 16(SI), X1 \
	VINSERTF128 $1, 48(SI), Y1, Y1 \
	VSHUFPS $0x88, Y1, Y0, Y0

// func maxRow2AVX(n int64, dst, src *float32)
//
// maxRowAVX over the taps src[2i]; reads src[0:2n].
TEXT ·maxRow2AVX(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
loop:
	EVENS8
	VMAXPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// func copyRow2AVX(n int64, dst, src *float32)
//
// dst[i] = src[2i]; reads src[0:2n].
TEXT ·copyRow2AVX(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
loop:
	EVENS8
	VMOVUPS Y0, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
