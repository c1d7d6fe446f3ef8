//go:build amd64

#include "textflag.h"

// AVX2 batch-norm kernels (bn.go), gated at runtime by useAVX. Each lane
// performs exactly the operations of the Go code in bn.go, in its order,
// with one rounding each (VSUBPD, VMULPD, VADDPD, VDIVSD; never FMA), so
// the two paths are bit-identical. Operand order is Go assembler syntax:
// `VOP src2, src1, dst` computes src1 OP src2.

// PAIR loads pixels i and i+1 of the four planes at p, p+R9, p+2·R9 and
// p+R11 and transposes them: Y2 holds pixel i, Y3 pixel i+1, lane k from
// plane k.
#define PAIR(p) \
	VMOVUPD     (p), X0; \
	VINSERTF128 $1, (p)(R9*2), Y0, Y0; \
	VMOVUPD     (p)(R9*1), X1; \
	VINSERTF128 $1, (p)(R11*1), Y1, Y1; \
	VUNPCKLPD   Y1, Y0, Y2; \
	VUNPCKHPD   Y1, Y0, Y3

// ONE gathers pixel i of the same four planes into Y2.
#define ONE(p) \
	VMOVSD      (p), X0; \
	VMOVHPD     (p)(R9*1), X0, X0; \
	VMOVSD      (p)(R9*2), X1; \
	VMOVHPD     (p)(R11*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y2

// SUMSQ and SUMDOT add one pixel's lanes t = v − m to the chains:
// Y13 += t, then Y14 += t·t (SUMSQ) or Y14 += t·u (SUMDOT).
#define SUMSQ(v) \
	VSUBPD Y12, v, v; \
	VADDPD v, Y13, Y13; \
	VMULPD v, v, Y5; \
	VADDPD Y5, Y14, Y14

#define SUMDOT(v, u) \
	VSUBPD Y12, v, v; \
	VADDPD v, Y13, Y13; \
	VMULPD u, v, Y5; \
	VADDPD Y5, Y14, Y14

// func chanSums4AVX(s *[8]float64, a, b *float64, m *[4]float64, n, stride, hw int)
//
// The four channel chains of chanSumsGo, one per lane: channel k's plane
// of image i starts at a + i·stride + k·hw. For each image in order, the
// pixels in order (pairs, then an odd last pixel), lane k adds
// t = a − m[k] to s[k] and t·u to s[4+k], u = b at the same offset, or
// u = t when b is nil. The caller guarantees n, hw >= 1.
TEXT ·chanSums4AVX(SB), NOSPLIT, $0-56
	MOVQ    s+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), R8
	MOVQ    m+24(FP), AX
	VMOVUPD (AX), Y12
	MOVQ    n+32(FP), CX
	MOVQ    stride+40(FP), R10
	SHLQ    $3, R10
	MOVQ    hw+48(FP), DX
	MOVQ    DX, R9
	SHLQ    $3, R9
	LEAQ    (R9)(R9*2), R11
	MOVQ    R8, AX              // AX != 0: the dot form
	VXORPD  Y13, Y13, Y13
	VXORPD  Y14, Y14, Y14

sumimage:
	MOVQ SI, R12
	MOVQ R8, R13
	MOVQ DX, BX
	SHRQ $1, BX
	JZ   sumone

sumpair:
	PAIR(R12)
	TESTQ AX, AX
	JNZ   sumpairdot
	SUMSQ(Y2)
	SUMSQ(Y3)
	JMP   sumpairnext

sumpairdot:
	VMOVUPD Y2, Y6
	VMOVUPD Y3, Y7
	PAIR(R13)
	SUMDOT(Y6, Y2)
	SUMDOT(Y7, Y3)
	ADDQ    $16, R13

sumpairnext:
	ADDQ $16, R12
	DECQ BX
	JNZ  sumpair

sumone:
	TESTQ $1, DX
	JZ    sumnext
	ONE(R12)
	TESTQ AX, AX
	JNZ   sumonedot
	SUMSQ(Y2)
	JMP   sumnext

sumonedot:
	VMOVUPD Y2, Y6
	ONE(R13)
	SUMDOT(Y6, Y2)

sumnext:
	ADDQ R10, SI
	ADDQ R10, R8
	DECQ CX
	JNZ  sumimage

	VMOVUPD Y13, (DI)
	VMOVUPD Y14, 32(DI)
	VZEROUPPER
	RET

// func bnNormAVX(out, xhat, x *float64, mean, inv, gamma, beta *float64, n, c, hw int)
//
// For each (image, channel) plane in order, with m, iv, g, bt the
// channel's mean[ch], inv[ch], gamma[ch] and beta[ch]: t = (x − m)·iv and
// out = g·t + bt, rounded after every operation. With xhat nil (the eval
// path) one loop writes out; otherwise a first loop writes t to xhat and
// a second reads the plane of xhat back, still in L1, to write out (two
// store streams interleaved in one loop ran at half the speed). The
// caller guarantees n, c, hw >= 1.
TEXT ·bnNormAVX(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ n+56(FP), CX
	MOVQ c+64(FP), BX
	MOVQ hw+72(FP), DX

normimage:
	XORQ AX, AX

normchan:
	MOVQ         mean+24(FP), R9
	VBROADCASTSD (R9)(AX*8), Y12
	MOVQ         inv+32(FP), R9
	VBROADCASTSD (R9)(AX*8), Y13
	MOVQ         gamma+40(FP), R9
	VBROADCASTSD (R9)(AX*8), Y14
	MOVQ         beta+48(FP), R9
	VBROADCASTSD (R9)(AX*8), Y15
	MOVQ         DX, R13
	SHRQ         $2, R13
	MOVQ         DX, R10
	ANDQ         $3, R10
	TESTQ        R8, R8
	JNZ          normtrain
	TESTQ        R13, R13
	JZ           evaltail

evalloop4:
	VMOVUPD (SI), Y0
	VSUBPD  Y12, Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMULPD  Y0, Y14, Y0
	VADDPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    R13
	JNZ     evalloop4

evaltail:
	TESTQ R10, R10
	JZ    normnext

evalloop1:
	VMOVSD (SI), X0
	VSUBSD X12, X0, X0
	VMULSD X13, X0, X0
	VMULSD X0, X14, X0
	VADDSD X15, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   R10
	JNZ    evalloop1
	JMP    normnext

normtrain:
	MOVQ  R8, R11 // this plane of xhat, for the second loop
	MOVQ  R13, R12
	TESTQ R13, R13
	JZ    xhattail

xhatloop4:
	VMOVUPD (SI), Y0
	VSUBPD  Y12, Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMOVUPD Y0, (R8)
	ADDQ    $32, SI
	ADDQ    $32, R8
	DECQ    R13
	JNZ     xhatloop4

xhattail:
	MOVQ  R10, R13
	TESTQ R13, R13
	JZ    outloop

xhatloop1:
	VMOVSD (SI), X0
	VSUBSD X12, X0, X0
	VMULSD X13, X0, X0
	VMOVSD X0, (R8)
	ADDQ   $8, SI
	ADDQ   $8, R8
	DECQ   R13
	JNZ    xhatloop1

outloop:
	TESTQ R12, R12
	JZ    outtail

outloop4:
	VMOVUPD (R11), Y0
	VMULPD  Y0, Y14, Y0
	VADDPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, R11
	ADDQ    $32, DI
	DECQ    R12
	JNZ     outloop4

outtail:
	TESTQ R10, R10
	JZ    normnext

outloop1:
	VMOVSD (R11), X0
	VMULSD X0, X14, X0
	VADDSD X15, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, R11
	ADDQ   $8, DI
	DECQ   R10
	JNZ    outloop1

normnext:
	INCQ AX
	CMPQ AX, BX
	JLT  normchan
	DECQ CX
	JNZ  normimage
	VZEROUPPER
	RET

// func bnBackAVX(din, dy, xhat, gamma, inv, sumDy, sumDyXhat *float64, cnt float64, n, c, hw int)
//
// For each (image, channel) plane in order: scale = g·iv/cnt from the
// channel's gamma[ch] and inv[ch], then din = scale·((cnt·dy − sumDy[ch])
// − xhat·sumDyXhat[ch]), rounded after every operation. The caller
// guarantees n, c, hw >= 1.
TEXT ·bnBackAVX(SB), NOSPLIT, $0-88
	MOVQ         din+0(FP), DI
	MOVQ         dy+8(FP), SI
	MOVQ         xhat+16(FP), R8
	MOVQ         gamma+24(FP), R9
	MOVQ         inv+32(FP), R10
	MOVQ         sumDy+40(FP), R11
	MOVQ         sumDyXhat+48(FP), R12
	VBROADCASTSD cnt+56(FP), Y11
	MOVQ         n+64(FP), CX
	MOVQ         c+72(FP), BX
	MOVQ         hw+80(FP), DX

backimage:
	XORQ AX, AX

backchan:
	VMOVSD       (R9)(AX*8), X0
	VMULSD       (R10)(AX*8), X0, X0
	VDIVSD       X11, X0, X0
	VBROADCASTSD X0, Y12
	VBROADCASTSD (R11)(AX*8), Y13
	VBROADCASTSD (R12)(AX*8), Y14
	MOVQ         DX, R13
	SHRQ         $2, R13
	JZ           backtail

backloop4:
	VMOVUPD (SI), Y0
	VMULPD  Y0, Y11, Y0
	VSUBPD  Y13, Y0, Y0
	VMOVUPD (R8), Y1
	VMULPD  Y14, Y1, Y1
	VSUBPD  Y1, Y0, Y0
	VMULPD  Y0, Y12, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    R13
	JNZ     backloop4

backtail:
	MOVQ DX, R13
	ANDQ $3, R13
	JZ   backnext

backloop1:
	VMOVSD (SI), X0
	VMULSD X0, X11, X0
	VSUBSD X13, X0, X0
	VMOVSD (R8), X1
	VMULSD X14, X1, X1
	VSUBSD X1, X0, X0
	VMULSD X0, X12, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, R8
	ADDQ   $8, DI
	DECQ   R13
	JNZ    backloop1

backnext:
	INCQ AX
	CMPQ AX, BX
	JLT  backchan
	DECQ CX
	JNZ  backimage
	VZEROUPPER
	RET
