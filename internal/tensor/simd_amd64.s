//go:build amd64

#include "textflag.h"

// The hot kernels behind the packed/fused matmul and direct-conv paths,
// written against AVX2+FMA (gated at runtime by useAVX, see
// simd_amd64.go). All accumulate with fused multiply-adds in ascending p
// order per output element, so their results are bit-identical to the
// scalar math.FMA reference kernels.

// func gemm4x8Asm(k int, a *float64, ars, aps int, b *float64, bps int, c *float64, ldc int)
//
// C (a 4×8 tile at c with row stride ldc doubles) accumulates
// sum_p a[r*ars + p*aps] * b[p*bps + j] on top of its current contents.
// Strides are in doubles: a packed panel pair is (ars, aps, bps) =
// (1, 4, 8); a row-major B read in place has bps = its row length, and
// rows of a matrix broadcast in place have ars = the row length, aps = 1.
// Eight YMM accumulators hold the tile; each p step is two B-row loads,
// four indexed A broadcasts, eight VFMADD231PD and two pointer bumps.
TEXT ·gemm4x8Asm(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R12
	MOVQ aps+24(FP), R13
	MOVQ b+32(FP), DI
	MOVQ bps+40(FP), AX
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R8
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, AX
	LEAQ (R12)(R12*2), BX
	SHLQ $3, R8
	LEAQ (DX)(R8*1), R9
	LEAQ (DX)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7
	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VBROADCASTSD (SI)(R12*1), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (SI)(R12*2), Y12
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VBROADCASTSD (SI)(BX*1), Y13
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R13, SI
	ADDQ         AX, DI
	DECQ         CX
	JNZ          loop

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func axpyAVX(alpha float64, x, y *float64, n int)
//
// y[i] = fma(alpha, x[i], y[i]) for i in [0, n): the vectorized
// saxpy-with-FMA behind the direct (unpacked) matmul and conv kernels.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           tail4

loop8:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        BX
	JNZ         loop8

tail4:
	TESTQ $4, CX
	JZ    tail1
	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI

tail1:
	ANDQ $3, CX
	JZ   done

scalar:
	VMOVSD      (DI), X1
	VMOVSD      (SI), X2
	VFMADD231SD X2, X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         scalar

done:
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The 4×8 FMA step shared by the convolution micro-kernels below: B row
// in Y8/Y9, the four A values broadcast from (SI), accumulators Y0..Y7.
#define FMA4X8 \
	VBROADCASTSD (SI), Y10      \
	VFMADD231PD  Y8, Y10, Y0    \
	VFMADD231PD  Y9, Y10, Y1    \
	VBROADCASTSD 8(SI), Y11     \
	VFMADD231PD  Y8, Y11, Y2    \
	VFMADD231PD  Y9, Y11, Y3    \
	VBROADCASTSD 16(SI), Y12    \
	VFMADD231PD  Y8, Y12, Y4    \
	VFMADD231PD  Y9, Y12, Y5    \
	VBROADCASTSD 24(SI), Y13    \
	VFMADD231PD  Y8, Y13, Y6    \
	VFMADD231PD  Y9, Y13, Y7    \
	ADDQ         $32, SI

#define ZERO4X8 \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4 \
	VXORPD Y5, Y5, Y5 \
	VXORPD Y6, Y6, Y6 \
	VXORPD Y7, Y7, Y7

// func conv4x8AVX(ap, xp *float64, c, kh, kw, plane, wp int, tile *float64)
//
// The forward convolution micro-kernel: gemm4x8 with the B panel read in
// place. Row p = (ch, ky, kx) of the panel is the eight doubles at
// xp[ch*plane + ky*wp + kx], so three nested counters step the B pointer
// where gemm4x8Asm advances it by one stride; the A panel and the
// ascending-p FMA chain per element are the same. The tile (row stride 8)
// is seeded with +0 and overwritten.
TEXT ·conv4x8AVX(SB), NOSPLIT, $0-64
	MOVQ ap+0(FP), SI
	MOVQ xp+8(FP), DI
	MOVQ c+16(FP), R8
	MOVQ kh+24(FP), R9
	MOVQ kw+32(FP), R10
	MOVQ plane+40(FP), R11
	MOVQ wp+48(FP), R12
	MOVQ tile+56(FP), DX
	SHLQ $3, R11
	SHLQ $3, R12
	ZERO4X8

convch:
	MOVQ DI, R13
	MOVQ R9, AX

convky:
	MOVQ R13, BX
	MOVQ R10, CX

convkx:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	FMA4X8
	ADDQ    $8, BX
	DECQ    CX
	JNZ     convkx
	ADDQ    R12, R13
	DECQ    AX
	JNZ     convky
	ADDQ    R11, DI
	DECQ    R8
	JNZ     convch
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func convStoreAVX(dst *float64, p int, tile, ep *float64, mode int)
//
// The forward convolution's tile store: row r of the 4×8 tile (row
// stride 8) goes to dst[r*p ..+8), the channel planes p doubles apart.
// ep holds the block's operands, four of each: bias, mean, inv, gamma,
// beta. Each row takes + bias, then by the mode bits (epBN 1, epReLU 2)
// bnNormAVX's t = (v − m)·iv and g·t + bt and vecReLUAVX's gate (an
// ordered VCMPPD $2 against +0 and a VANDNPD): one rounded instruction
// each, in the separate passes' operand order, so a NaN operand
// propagates as it does there. No FMA.
TEXT ·convStoreAVX(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   p+8(FP), DX
	MOVQ   tile+16(FP), SI
	MOVQ   ep+24(FP), R8
	MOVQ   mode+32(FP), AX
	SHLQ   $3, DX
	MOVQ   $4, CX
	VXORPD Y15, Y15, Y15

storerow:
	VMOVUPD      (SI), Y0
	VMOVUPD      32(SI), Y1
	VBROADCASTSD (R8), Y2
	VADDPD       Y2, Y0, Y0
	VADDPD       Y2, Y1, Y1
	TESTQ        $1, AX
	JZ           storerelu
	VBROADCASTSD 32(R8), Y2
	VBROADCASTSD 64(R8), Y3
	VBROADCASTSD 96(R8), Y4
	VBROADCASTSD 128(R8), Y5
	VSUBPD       Y2, Y0, Y0
	VSUBPD       Y2, Y1, Y1
	VMULPD       Y3, Y0, Y0
	VMULPD       Y3, Y1, Y1
	VMULPD       Y0, Y4, Y0
	VMULPD       Y1, Y4, Y1
	VADDPD       Y5, Y0, Y0
	VADDPD       Y5, Y1, Y1

storerelu:
	TESTQ   $2, AX
	JZ      storeout
	VCMPPD  $2, Y15, Y0, Y2
	VCMPPD  $2, Y15, Y1, Y3
	VANDNPD Y0, Y2, Y0
	VANDNPD Y1, Y3, Y1

storeout:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $8, R8
	ADDQ    DX, DI
	DECQ    CX
	JNZ     storerow
	VZEROUPPER
	RET

// func gemm4x8AddAVX(k int, ap, bp, c *float64, off, ldc int, mask *int64)
//
// The input-gradient micro-kernel: the 4×8 product of the packed panels
// accumulates from +0 in registers (the per-tap chain), then joins C by a
// plain add, C first: row r of the tile goes to c[off + r*ldc ..+8). mask
// holds eight lane words (all ones = live); dead lanes are neither read
// nor written, so they may lie outside the buffer — a tile clipped at
// the image border adds only the lanes that land inside.
TEXT ·gemm4x8AddAVX(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ off+32(FP), AX
	MOVQ ldc+40(FP), R8
	MOVQ mask+48(FP), BX
	LEAQ (DX)(AX*8), DX
	SHLQ $3, R8
	ZERO4X8

addloop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	FMA4X8
	ADDQ    $64, DI
	DECQ    CX
	JNZ     addloop

	VMOVDQU (BX), Y14
	VMOVDQU 32(BX), Y15
	VMASKMOVPD (DX), Y14, Y8
	VMASKMOVPD 32(DX), Y15, Y9
	VADDPD     Y0, Y8, Y8
	VADDPD     Y1, Y9, Y9
	VMASKMOVPD Y8, Y14, (DX)
	VMASKMOVPD Y9, Y15, 32(DX)
	ADDQ       R8, DX
	VMASKMOVPD (DX), Y14, Y8
	VMASKMOVPD 32(DX), Y15, Y9
	VADDPD     Y2, Y8, Y8
	VADDPD     Y3, Y9, Y9
	VMASKMOVPD Y8, Y14, (DX)
	VMASKMOVPD Y9, Y15, 32(DX)
	ADDQ       R8, DX
	VMASKMOVPD (DX), Y14, Y8
	VMASKMOVPD 32(DX), Y15, Y9
	VADDPD     Y4, Y8, Y8
	VADDPD     Y5, Y9, Y9
	VMASKMOVPD Y8, Y14, (DX)
	VMASKMOVPD Y9, Y15, 32(DX)
	ADDQ       R8, DX
	VMASKMOVPD (DX), Y14, Y8
	VMASKMOVPD 32(DX), Y15, Y9
	VADDPD     Y6, Y8, Y8
	VADDPD     Y7, Y9, Y9
	VMASKMOVPD Y8, Y14, (DX)
	VMASKMOVPD Y9, Y15, 32(DX)
	VZEROUPPER
	RET

// func pool2x2AVX(dst, src *float64, oh, ow, w int)
//
// The 2×2, stride-2 max pool of one plane (row length w doubles) into
// dst, oh rows of ow. Four outputs at a time: two loads per input row
// cover taps 2ox..2ox+7, VSHUFPD splits them into even and odd columns
// (in lane order o0, o2, o1, o3, which VPERMPD $0xD8 undoes at the end),
// and three VMAXPD fold the taps (2oy, even), (2oy, odd), (2oy+1, even),
// (2oy+1, odd) in that order. MAXPD returns src1 > src2 ? src1 : src2, so
// with the new tap as src1 and the running maximum as src2 (Go syntax:
// VMAXPD Ybest, Ytap, Ybest) each step is the scalar "replace only when
// strictly greater": NaN and ±0 ties keep the running value. The last
// ow mod 4 outputs of a row take the same chain in VMAXSD.
TEXT ·pool2x2AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ oh+16(FP), CX
	MOVQ ow+24(FP), DX
	MOVQ w+32(FP), R8
	SHLQ $3, R8        // row stride in bytes
	LEAQ (R8)(R8*1), R9 // row-pair stride

poolrow:
	MOVQ SI, R10        // row 2oy
	LEAQ (SI)(R8*1), R11 // row 2oy+1
	MOVQ DX, BX
	CMPQ BX, $4
	JLT  pooltail

poolquad:
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD (R11), Y2
	VMOVUPD 32(R11), Y3
	VSHUFPD $0x0, Y1, Y0, Y4
	VSHUFPD $0xF, Y1, Y0, Y5
	VSHUFPD $0x0, Y3, Y2, Y6
	VSHUFPD $0xF, Y3, Y2, Y7
	VMAXPD  Y4, Y5, Y4
	VMAXPD  Y4, Y6, Y4
	VMAXPD  Y4, Y7, Y4
	VPERMPD $0xD8, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $64, R10
	ADDQ    $64, R11
	ADDQ    $32, DI
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     poolquad

pooltail:
	TESTQ BX, BX
	JZ    poolnext

poolscalar:
	VMOVSD (R10), X4
	VMOVSD 8(R10), X5
	VMAXSD X4, X5, X4
	VMOVSD (R11), X5
	VMAXSD X4, X5, X4
	VMOVSD 8(R11), X5
	VMAXSD X4, X5, X4
	VMOVSD X4, (DI)
	ADDQ   $16, R10
	ADDQ   $16, R11
	ADDQ   $8, DI
	DECQ   BX
	JNZ    poolscalar

poolnext:
	ADDQ R9, SI
	DECQ CX
	JNZ  poolrow
	VZEROUPPER
	RET
