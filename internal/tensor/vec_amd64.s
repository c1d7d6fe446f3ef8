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

// Transcendental kernels (exp.go): Exp, Sigmoid and Tanh on four lanes,
// each lane performing exactly the scalar code's operations, in its
// order, with one rounding each (VMULPD, VADDPD, VSUBPD, VDIVPD; never
// FMA). transc holds every constant four times, one YMM operand each.
#define C4(off, v) DATA transc<>+(off)(SB)/8, v; DATA transc<>+(off+8)(SB)/8, v; DATA transc<>+(off+16)(SB)/8, v; DATA transc<>+(off+24)(SB)/8, v

C4(0, $0x8000000000000000)       // sign bit
C4(32, $0x7fffffffffffffff)      // |x| mask
C4(64, $0.5)
C4(96, $1.44269504088896338700e+00)  // log2(e)
C4(128, $6.93147180369123816490e-01) // ln2, high part
C4(160, $1.90821492927058770002e-10) // ln2, low part
C4(192, $1.66666666666666657415e-01) // P1
C4(224, $-2.77777777770155933842e-03) // P2
C4(256, $6.61375632143793436117e-05) // P3
C4(288, $-1.65339022054652515390e-06) // P4
C4(320, $4.13813679705723846039e-08) // P5
C4(352, $1.0)
C4(384, $2.0)
C4(416, $1023)                   // exponent bias, as int64
C4(448, $3.7252902984619140625e-09) // 2⁻²⁸
C4(480, $708.0)
C4(512, $-9.64399179425052238628e-1) // tanh P0
C4(544, $-9.92877231001918586564e1)  // tanh P1
C4(576, $-1.61468768441708447952e3)  // tanh P2
C4(608, $1.12811678491632931402e2)   // tanh Q0
C4(640, $2.23548839060100448583e3)   // tanh Q1
C4(672, $4.84406305325125486048e3)   // tanh Q2
C4(704, $0.625)
C4(736, $44.014845965556527147994) // ½·log(2¹²⁷)
GLOBL transc<>(SB), RODATA|NOPTR, $768

// EXP4 sets Y0 = Exp(Y0) for lanes with |x| in [2⁻²⁸, 708], clobbering
// Y1–Y7. k = trunc(log2(e)·x ± 0.5) (VCVTTPD2DQ truncates as Go's int
// conversion does), hi = x − k·ln2Hi, lo = k·ln2Lo, r = hi − lo, t = r·r,
// c = r − t·(P1+t·(P2+t·(P3+t·(P4+t·P5)))), y = 1 − ((lo − r·c/(2−c)) − hi).
// In this range k is in [−1021, 1021], so 2^k, built from its exponent
// bits, is normal, and y·2^k is exact, as math.Ldexp's result is there.
#define EXP4 \
	VMULPD      transc<>+96(SB), Y0, Y1; \
	VANDPD      transc<>+0(SB), Y0, Y2; \
	VORPD       transc<>+64(SB), Y2, Y2; \
	VADDPD      Y2, Y1, Y1; \
	VCVTTPD2DQY Y1, X1; \
	VCVTDQ2PD   X1, Y2; \
	VMULPD      transc<>+128(SB), Y2, Y3; \
	VSUBPD      Y3, Y0, Y3; \
	VMULPD      transc<>+160(SB), Y2, Y4; \
	VSUBPD      Y4, Y3, Y5; \
	VMULPD      Y5, Y5, Y6; \
	VMULPD      transc<>+320(SB), Y6, Y7; \
	VADDPD      transc<>+288(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VADDPD      transc<>+256(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VADDPD      transc<>+224(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VADDPD      transc<>+192(SB), Y7, Y7; \
	VMULPD      Y7, Y6, Y7; \
	VSUBPD      Y7, Y5, Y7; \
	VMULPD      Y7, Y5, Y5; \
	VMOVUPD     transc<>+384(SB), Y6; \
	VSUBPD      Y7, Y6, Y6; \
	VDIVPD      Y6, Y5, Y5; \
	VSUBPD      Y5, Y4, Y4; \
	VSUBPD      Y3, Y4, Y4; \
	VMOVUPD     transc<>+352(SB), Y0; \
	VSUBPD      Y4, Y0, Y0; \
	VPMOVSXDQ   X1, Y1; \
	VPADDQ      transc<>+416(SB), Y1, Y1; \
	VPSLLQ      $52, Y1, Y1; \
	VMULPD      Y1, Y0, Y0

// func sigmoidAVX(dst, a *float64, n int) int
//
// dst[i] = Sigmoid(a[i]) = 1/(1+Exp(−a[i])) for whole groups of four
// while every lane has |a[i]| in [2⁻²⁸, 708] (an ordered compare, so NaN
// fails it). Returns the number of elements written; the caller runs the
// group that failed, and the tail, through the scalar code.
TEXT ·sigmoidAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	ANDQ $~3, CX
	JZ   sigdone

sigloop:
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    transc<>+32(SB), Y0, Y8
	VCMPPD    $0x1d, transc<>+448(SB), Y8, Y9 // |x| >= 2⁻²⁸
	VCMPPD    $0x12, transc<>+480(SB), Y8, Y8 // |x| <= 708
	VANDPD    Y9, Y8, Y8
	VMOVMSKPD Y8, BX
	CMPQ      BX, $15
	JNE       sigdone
	VXORPD    transc<>+0(SB), Y0, Y0
	EXP4
	VADDPD    transc<>+352(SB), Y0, Y0
	VMOVUPD   transc<>+352(SB), Y1
	VDIVPD    Y0, Y1, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       sigloop

sigdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhAVX(dst, a *float64, n int)
//
// dst[i] = Tanh(a[i]) for n a positive multiple of 4. Every lane computes
// both branches of Tanh and blends them: with z = |x|, ±(1 − 2/(s+1)),
// s = Exp(2z) on z clamped to [0.625, ½·log(2¹²⁷)] (so EXP4 sees only its
// fast range), and x + x·s'·P(s')/Q(s'), s' = x·x. Then x where x == 0,
// the exp branch where z >= 0.625, and ±1 where z > ½·log(2¹²⁷). A group
// with no lane at z >= 0.625 skips the exp branch, which no lane would
// select. NaN fails every ordered compare and keeps the rational branch's
// NaN, as the scalar code does.
TEXT ·tanhAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

tanhloop:
	VMOVUPD   (SI)(AX*8), Y13
	VANDPD    transc<>+32(SB), Y13, Y8         // z = |x|
	VANDPD    transc<>+0(SB), Y13, Y9          // sign of x
	VCMPPD    $0x1d, transc<>+704(SB), Y8, Y11 // z >= 0.625
	VMOVMSKPD Y11, BX
	TESTQ     BX, BX
	JZ        tanhrational
	VMAXPD    transc<>+704(SB), Y8, Y0
	VMINPD    transc<>+736(SB), Y0, Y0
	VMULPD    transc<>+384(SB), Y0, Y0
	EXP4
	VADDPD    transc<>+352(SB), Y0, Y0
	VMOVUPD   transc<>+384(SB), Y1
	VDIVPD    Y0, Y1, Y1
	VMOVUPD   transc<>+352(SB), Y0
	VSUBPD    Y1, Y0, Y0
	VXORPD    Y9, Y0, Y10                      // exp branch

tanhrational:
	VMULPD Y13, Y13, Y1              // s'
	VMULPD transc<>+512(SB), Y1, Y2
	VADDPD transc<>+544(SB), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD transc<>+576(SB), Y2, Y2  // P(s')
	VADDPD transc<>+608(SB), Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD transc<>+640(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD transc<>+672(SB), Y3, Y3  // Q(s')
	VMULPD Y1, Y13, Y1
	VMULPD Y2, Y1, Y1
	VDIVPD Y3, Y1, Y1
	VADDPD Y1, Y13, Y1               // rational branch

	VXORPD    Y2, Y2, Y2
	VCMPPD    $0, Y2, Y13, Y2        // x == 0
	VBLENDVPD Y2, Y13, Y1, Y1
	VBLENDVPD Y11, Y10, Y1, Y1
	VCMPPD    $0x1e, transc<>+736(SB), Y8, Y2 // z > ½·log(2¹²⁷)
	VORPD     transc<>+352(SB), Y9, Y3        // ±1
	VBLENDVPD Y2, Y3, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       tanhloop
	VZEROUPPER
	RET
