//go:build amd64

#include "textflag.h"

// The hot kernels behind the packed/fused matmul and direct-conv paths,
// written against AVX2+FMA (gated at runtime by useAVX, see
// simd_amd64.go). All accumulate with fused multiply-adds in ascending p
// order per output element, so their results are bit-identical to the
// scalar math.FMA reference kernels.

// func gemm4x8Asm(k int, a *float64, ars, aps int, b *float64, bps int, c *float64, ldc, rows, askip int)
//
// C (a 4×8 tile at c with row stride ldc doubles) accumulates
// sum_p a[r*ars + p*aps] * b[p*bps + j] on top of its current contents.
// Strides are in doubles: a packed panel pair is (ars, aps, bps) =
// (1, 4, 8); a row-major B read in place has bps = its row length, and
// rows of a matrix broadcast in place have ars = the row length, aps = 1.
// The k steps repeat rows times, the A pointer moving on askip bytes
// after each run and B running on (gemm4x8Rows).
// Eight YMM accumulators hold the tile; each p step is two B-row loads,
// four indexed A broadcasts, eight VFMADD231PD and two pointer bumps.
TEXT ·gemm4x8Asm(SB), NOSPLIT, $0-80
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
	MOVQ    rows+64(FP), R8
	TESTQ   CX, CX
	JZ      store

run:
	MOVQ k+0(FP), CX

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
	ADDQ         askip+72(FP), SI
	DECQ         R8
	JNZ          run

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

// func conv4x8TapsAVX(ap, xp *float64, offs *int, k int, tile *float64)
//
// conv4x8AVX with row p of the B panel at xp[offs[p]], in the phase
// planes; the tile (row stride 8) is seeded with +0 and overwritten.
TEXT ·conv4x8TapsAVX(SB), NOSPLIT, $0-40
	MOVQ ap+0(FP), SI
	MOVQ xp+8(FP), DI
	MOVQ offs+16(FP), R8
	MOVQ k+24(FP), CX
	MOVQ tile+32(FP), DX
	ZERO4X8

tapsloop:
	MOVQ    (R8), AX
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	FMA4X8
	ADDQ    $8, R8
	DECQ    CX
	JNZ     tapsloop
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

// One row of the running dx tile at off(base) += the tap's row y, the
// running value first.
#define ADDRUN(off, y) \
	VMOVUPD off, Y8  \
	VADDPD  y, Y8, Y8 \
	VMOVUPD Y8, off

// func convGather4x8AVX(ap, dout *float64, taps *int, ntaps, outC, p int, dst *float64, ldd int, masks *[8]int64)
//
// The input-gradient micro-kernel: a 4-channel × 8-pixel dx tile (rows
// ldd doubles apart at dst) gathered tap by tap into dst from +0. Per tap
// {a, d, lo, hi} the zero-seeded dot over outC steps (A at ap[a..], B row
// oc dout[d+oc·p ..+8) read in place) runs in registers and joins the
// tile with one add, running value first. Lanes outside [lo, hi) fall
// outside dout's plane: they load as zero through masks[lo·9+hi] and are
// cleared after the dot, so an Inf or NaN weight leaves no trace there.
TEXT ·convGather4x8AVX(SB), NOSPLIT, $0-72
	MOVQ   ap+0(FP), R8
	MOVQ   dout+8(FP), R9
	MOVQ   taps+16(FP), R10
	MOVQ   ntaps+24(FP), R11
	MOVQ   outC+32(FP), R12
	MOVQ   p+40(FP), R13
	MOVQ   dst+48(FP), DX
	MOVQ   ldd+56(FP), AX
	SHLQ   $3, R13
	SHLQ   $3, AX
	LEAQ   (DX)(AX*2), BX
	VXORPD Y0, Y0, Y0
	VMOVUPD Y0, (DX)
	VMOVUPD Y0, 32(DX)
	VMOVUPD Y0, (DX)(AX*1)
	VMOVUPD Y0, 32(DX)(AX*1)
	VMOVUPD Y0, (BX)
	VMOVUPD Y0, 32(BX)
	VMOVUPD Y0, (BX)(AX*1)
	VMOVUPD Y0, 32(BX)(AX*1)
	TESTQ  R11, R11
	JZ     gatherdone

gathertap:
	MOVQ 0(R10), SI
	LEAQ (R8)(SI*8), SI
	MOVQ 8(R10), DI
	LEAQ (R9)(DI*8), DI
	MOVQ 16(R10), AX
	MOVQ 24(R10), BX
	MOVQ R12, CX
	ZERO4X8
	LEAQ    (AX)(AX*8), AX
	ADDQ    BX, AX
	CMPQ    AX, $8
	JNE     gathermasked // not lanes [0, 8)

gatherfull:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	FMA4X8
	ADDQ    R13, DI
	DECQ    CX
	JNZ     gatherfull
	JMP     gatheradd

gathermasked:
	SHLQ    $6, AX
	MOVQ    masks+64(FP), BX
	VMOVDQU (BX)(AX*1), Y14
	VMOVDQU 32(BX)(AX*1), Y15

gatherloop:
	VMASKMOVPD (DI), Y14, Y8
	VMASKMOVPD 32(DI), Y15, Y9
	FMA4X8
	ADDQ       R13, DI
	DECQ       CX
	JNZ        gatherloop
	VANDPD     Y14, Y0, Y0
	VANDPD     Y15, Y1, Y1
	VANDPD     Y14, Y2, Y2
	VANDPD     Y15, Y3, Y3
	VANDPD     Y14, Y4, Y4
	VANDPD     Y15, Y5, Y5
	VANDPD     Y14, Y6, Y6
	VANDPD     Y15, Y7, Y7

gatheradd:
	MOVQ       ldd+56(FP), AX
	SHLQ       $3, AX
	LEAQ       (DX)(AX*2), BX
	ADDRUN((DX), Y0)
	ADDRUN(32(DX), Y1)
	ADDRUN((DX)(AX*1), Y2)
	ADDRUN(32(DX)(AX*1), Y3)
	ADDRUN((BX), Y4)
	ADDRUN(32(BX), Y5)
	ADDRUN((BX)(AX*1), Y6)
	ADDRUN(32(BX)(AX*1), Y7)
	ADDQ       $32, R10
	DECQ       R11
	JNZ        gathertap

gatherdone:
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
