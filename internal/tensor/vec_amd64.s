//go:build amd64

#include "textflag.h"

// AVX2 kernels for the shared vector-op layer (vec.go), gated at runtime
// by useAVX. Every kernel performs exactly one IEEE operation per element
// in the same operand order as its Go reference in simd.go, so the two
// paths are bit-identical — including NaN propagation and signed zeros.
// Operand-order notes below are in Go assembler syntax, where the operand
// order is reversed from Intel: `VOP src2, src1, dst`.
//
// Layout convention (shared with axpyAVX): an 8-elements-per-iteration
// main loop on two YMM registers, a 4-element tail, then a scalar tail.

// func vecAddAVX(dst, a, b *float64, n int)
//
// dst[i] = a[i] + b[i]. src1 = a, matching Go's `a[i] + b[i]` codegen so
// double-NaN inputs propagate the same payload.
TEXT ·vecAddAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   addtail4

addloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VADDPD  (DX), Y1, Y1
	VADDPD  32(DX), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     addloop8

addtail4:
	TESTQ $4, CX
	JZ    addtail1
	VMOVUPD (SI), Y1
	VADDPD  (DX), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI

addtail1:
	ANDQ $3, CX
	JZ   adddone

addscalar:
	VMOVSD (SI), X1
	VADDSD (DX), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    addscalar

adddone:
	VZEROUPPER
	RET

// func vecMulAVX(dst, a, b *float64, n int)
//
// dst[i] = a[i] * b[i]; src1 = a as in vecAddAVX.
TEXT ·vecMulAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   multail4

mulloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  (DX), Y1, Y1
	VMULPD  32(DX), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     mulloop8

multail4:
	TESTQ $4, CX
	JZ    multail1
	VMOVUPD (SI), Y1
	VMULPD  (DX), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI

multail1:
	ANDQ $3, CX
	JZ   muldone

mulscalar:
	VMOVSD (SI), X1
	VMULSD (DX), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    mulscalar

muldone:
	VZEROUPPER
	RET

// func vecMaxAVX(dst, a, b *float64, n int)
//
// dst[i] = b[i] if b[i] > a[i], else a[i]. MAXPD returns src2 on NaN and
// on ties, so with src1 = b and src2 = a (Go syntax: VMAXPD Ya, Yb, Ydst)
// the hardware reproduces the scalar `if b > a { dst = b } else { dst = a }`
// branch exactly — a keeps NaNs and wins ±0 ties.
TEXT ·vecMaxAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   maxtail4

maxloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD (DX), Y3
	VMOVUPD 32(DX), Y4
	VMAXPD  Y1, Y3, Y1
	VMAXPD  Y2, Y4, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     maxloop8

maxtail4:
	TESTQ $4, CX
	JZ    maxtail1
	VMOVUPD (SI), Y1
	VMOVUPD (DX), Y3
	VMAXPD  Y1, Y3, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI

maxtail1:
	ANDQ $3, CX
	JZ   maxdone

maxscalar:
	VMOVSD (SI), X1
	VMOVSD (DX), X3
	VMAXSD X1, X3, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    maxscalar

maxdone:
	VZEROUPPER
	RET

// func vecMinAVX(dst, a, b *float64, n int)
//
// dst[i] = b[i] if b[i] < a[i], else a[i] — the MINPD mirror of
// vecMaxAVX with the same src1 = b, src2 = a convention.
TEXT ·vecMinAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   mintail4

minloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD (DX), Y3
	VMOVUPD 32(DX), Y4
	VMINPD  Y1, Y3, Y1
	VMINPD  Y2, Y4, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     minloop8

mintail4:
	TESTQ $4, CX
	JZ    mintail1
	VMOVUPD (SI), Y1
	VMOVUPD (DX), Y3
	VMINPD  Y1, Y3, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI

mintail1:
	ANDQ $3, CX
	JZ   mindone

minscalar:
	VMOVSD (SI), X1
	VMOVSD (DX), X3
	VMINSD X1, X3, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    minscalar

mindone:
	VZEROUPPER
	RET

// func vecScaleAVX(dst, a *float64, s float64, n int)
//
// dst[i] = a[i] * s; src1 = a, matching Go's `a[i] * s`.
TEXT ·vecScaleAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	VBROADCASTSD s+16(FP), Y0
	MOVQ         n+24(FP), CX
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           scaletail4

scaleloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     scaleloop8

scaletail4:
	TESTQ $4, CX
	JZ    scaletail1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

scaletail1:
	ANDQ $3, CX
	JZ   scaledone

scalescalar:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scalescalar

scaledone:
	VZEROUPPER
	RET

// func vecAxpyPlainAVX(alpha float64, x, y *float64, n int)
//
// y[i] += alpha * x[i] with a SEPARATELY ROUNDED multiply then add (no
// FMA), bit-identical to the scalar `y += alpha*x` loop. The multiply's
// src1 = alpha and the add's src1 = y, matching Go codegen operand order.
TEXT ·vecAxpyPlainAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           axpytail4

axpyloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y1, Y0, Y1
	VMULPD  Y2, Y0, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     axpyloop8

axpytail4:
	TESTQ $4, CX
	JZ    axpytail1
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD (DI), Y3
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

axpytail1:
	ANDQ $3, CX
	JZ   axpydone

axpyscalar:
	VMOVSD (SI), X1
	VMULSD X1, X0, X1
	VMOVSD (DI), X3
	VADDSD X1, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    axpyscalar

axpydone:
	VZEROUPPER
	RET

// func vecReLUAVX(dst, a *float64, n int)
//
// dst[i] = +0 when a[i] <= 0, else a[i]. A plain MAX-against-zero would
// zero NaNs and break bitwise identity with the scalar branch, so this
// builds the (a <= 0) mask with an ordered-quiet VCMPPD (predicate 2:
// unordered compares are false, letting NaN through) and clears masked
// lanes with VANDNPD.
TEXT ·vecReLUAVX(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0
	MOVQ   CX, BX
	SHRQ   $3, BX
	JZ     relutail4

reluloop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VCMPPD  $2, Y0, Y1, Y3
	VCMPPD  $2, Y0, Y2, Y4
	VANDNPD Y1, Y3, Y1
	VANDNPD Y2, Y4, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     reluloop8

relutail4:
	TESTQ $4, CX
	JZ    relutail1
	VMOVUPD (SI), Y1
	VCMPPD  $2, Y0, Y1, Y3
	VANDNPD Y1, Y3, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

relutail1:
	ANDQ $3, CX
	JZ   reludone

reluscalar:
	VMOVSD  (SI), X1
	VCMPSD  $2, X0, X1, X3
	VANDNPD X1, X3, X1
	VMOVSD  X1, (DI)
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     reluscalar

reludone:
	VZEROUPPER
	RET
