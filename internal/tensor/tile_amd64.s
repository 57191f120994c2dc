// AVX2 and AVX-512 tile kernels and CPU feature detection for the tensor
// products the fused inference engine, the layered Conv2D and the block
// DCT run. See tile_amd64.go for the calling contracts and the bit-for-bit
// parity argument; the short version is that vector lanes are independent output
// elements, every lane executes the exact scalar operation sequence of the
// Go reference kernel (separate VMULPD/VADDPD — no FMA contraction, which
// would change results; scripts/check.sh fails on any FMA form in this
// file), and the rectifier is a GT_OQ compare-and-mask so NaN and -0
// behave exactly like Go's v > 0.

#include "textflag.h"

// func convTileAVX2(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64)
//
// For each 4-column step j of [0, width) and each channel r in 0..3:
//
//	s = 0
//	for p in 4-wide groups:   s += ar[p]·B[p][j] + ar[p+1]·B[p+1][j] + ar[p+2]·B[p+2][j] + ar[p+3]·B[p+3][j]
//	for remaining p:          s += ar[p]·B[p][j]
//	s += br
//	if relu != 0:             s = s > 0 ? s : +0
//	d[r·width + j] = s
//
// with B[p][j] = base[off[p] + j]. All 16 YMM registers are live in the
// group loop: Y0-Y3 the four channels' accumulators, Y4-Y7 the four
// coefficient rows (loaded once, used by every channel), Y8-Y11 the
// channels' group sums and Y12-Y15 their products.
//
// Registers: R8-R11 coefficient rows a0..a3, SI = base + j·8, DX = off,
// AX = p, BX = k &^ 3, R12 = k, R13 = width, CX = j, DI scratch.
TEXT ·convTileAVX2(SB), NOSPLIT, $0-112
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ base+40(FP), SI
	MOVQ off+48(FP), DX
	MOVQ k+56(FP), R12
	MOVQ width+64(FP), R13
	MOVQ R12, BX
	ANDQ $-4, BX             // BX = k &^ 3, the 4-wide group limit
	XORQ CX, CX

loopj:
	CMPQ CX, R13
	JGE  done
	VXORPD Y0, Y0, Y0        // s = 0 per channel (the layered kernel's
	VXORPD Y1, Y1, Y1        // 0-then-+= start is 0 + group too)
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

loopp4:
	CMPQ AX, BX
	JGE  tailp
	MOVQ (DX)(AX*8), DI      // coefficient rows p..p+3 at base+off[p]+j
	VMOVUPD (SI)(DI*8), Y4
	MOVQ 8(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y5
	MOVQ 16(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y6
	MOVQ 24(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y7

	VBROADCASTSD (R8)(AX*8), Y8    // m0 = ar[p]·row p
	VBROADCASTSD (R9)(AX*8), Y9
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y10, Y10
	VMULPD Y4, Y11, Y11

	VBROADCASTSD 8(R8)(AX*8), Y12  // m1 = ar[p+1]·row p+1
	VBROADCASTSD 8(R9)(AX*8), Y13
	VBROADCASTSD 8(R10)(AX*8), Y14
	VBROADCASTSD 8(R11)(AX*8), Y15
	VMULPD Y5, Y12, Y12
	VMULPD Y5, Y13, Y13
	VMULPD Y5, Y14, Y14
	VMULPD Y5, Y15, Y15
	VADDPD Y12, Y8, Y8             // m0+m1
	VADDPD Y13, Y9, Y9
	VADDPD Y14, Y10, Y10
	VADDPD Y15, Y11, Y11

	VBROADCASTSD 16(R8)(AX*8), Y12 // m2
	VBROADCASTSD 16(R9)(AX*8), Y13
	VBROADCASTSD 16(R10)(AX*8), Y14
	VBROADCASTSD 16(R11)(AX*8), Y15
	VMULPD Y6, Y12, Y12
	VMULPD Y6, Y13, Y13
	VMULPD Y6, Y14, Y14
	VMULPD Y6, Y15, Y15
	VADDPD Y12, Y8, Y8             // (m0+m1)+m2
	VADDPD Y13, Y9, Y9
	VADDPD Y14, Y10, Y10
	VADDPD Y15, Y11, Y11

	VBROADCASTSD 24(R8)(AX*8), Y12 // m3
	VBROADCASTSD 24(R9)(AX*8), Y13
	VBROADCASTSD 24(R10)(AX*8), Y14
	VBROADCASTSD 24(R11)(AX*8), Y15
	VMULPD Y7, Y12, Y12
	VMULPD Y7, Y13, Y13
	VMULPD Y7, Y14, Y14
	VMULPD Y7, Y15, Y15
	VADDPD Y12, Y8, Y8             // ((m0+m1)+m2)+m3: the Go
	VADDPD Y13, Y9, Y9             // expression's left-associative
	VADDPD Y14, Y10, Y10           // grouping, exactly
	VADDPD Y15, Y11, Y11

	VADDPD Y8, Y0, Y0              // s += group
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	ADDQ $4, AX
	JMP  loopp4

tailp:
	CMPQ AX, R12
	JGE  epilogue
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y4
	VBROADCASTSD (R8)(AX*8), Y8
	VBROADCASTSD (R9)(AX*8), Y9
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y10, Y10
	VMULPD Y4, Y11, Y11
	VADDPD Y8, Y0, Y0              // s += ar[p]·B[p][j]
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	INCQ AX
	JMP  tailp

epilogue:
	VBROADCASTSD b0+72(FP), Y4     // s += bias, after the full dot like
	VBROADCASTSD b1+80(FP), Y5     // the layered per-row epilogue
	VBROADCASTSD b2+88(FP), Y6
	VBROADCASTSD b3+96(FP), Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	MOVQ relu+104(FP), DI
	TESTQ DI, DI
	JZ   store
	VXORPD Y4, Y4, Y4              // +0.0 lanes for the rectifier compare
	VCMPPD $0x1e, Y4, Y0, Y8       // lanes where s > +0 (GT_OQ: NaN -> false)
	VCMPPD $0x1e, Y4, Y1, Y9
	VCMPPD $0x1e, Y4, Y2, Y10
	VCMPPD $0x1e, Y4, Y3, Y11
	VANDPD Y8, Y0, Y0              // keep those lanes, others become +0
	VANDPD Y9, Y1, Y1
	VANDPD Y10, Y2, Y2
	VANDPD Y11, Y3, Y3

store:
	MOVQ d+0(FP), DI
	LEAQ (DI)(CX*8), DI            // &d[j], then one row (width) apart
	VMOVUPD Y0, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Y1, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Y2, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Y3, (DI)
	ADDQ $4, CX
	ADDQ $32, SI
	JMP  loopj

done:
	VZEROUPPER
	RET

// func convTileAVX512(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64)
//
// convTileAVX2's contract and per-lane sequence, sixteen columns per step:
// each channel's accumulator is two ZMM registers (eight lanes each), so
// one group of four coefficient rows feeds 64 independent lanes. A width
// that is not a multiple of 16 ends with at most one 8-column step (one
// ZMM per channel) and at most one 4-column step, which is convTileAVX2's
// loop body unchanged. Every lane still computes
//
//	s = 0; s += ((m0+m1)+m2)+m3 per group; s += m for the k remainder;
//	s += br; s = s > 0 ? s : +0 when relu != 0
//
// with separate VMULPD/VADDPD (no FMA). The rectifier is a GT_OQ compare
// into an opmask and a zero-masking move, so NaN and -0 lanes store +0.
//
// In the 16-column group loop Z0-Z7 are the accumulators (channel r in
// Z(2r) and Z(2r+1): columns 0-7 and 8-15), Z8-Z9 the coefficient row of
// the group's term q, Z10-Z13 the four channels' broadcast coefficients
// ar[p+q], Z16-Z23 the group sums and Z24-Z31 the products, laid out like
// the accumulators. Each row is loaded once for all four channels and each
// broadcast feeds both halves.
//
// Registers: R8-R11 coefficient rows a0..a3, SI = base + j·8, DX = off,
// AX = p, BX = k &^ 3, R12 = k, R13 = width, CX = j, DI scratch.
TEXT ·convTileAVX512(SB), NOSPLIT, $0-112
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ base+40(FP), SI
	MOVQ off+48(FP), DX
	MOVQ k+56(FP), R12
	MOVQ width+64(FP), R13
	MOVQ R12, BX
	ANDQ $-4, BX                    // BX = k &^ 3, the 4-wide group limit
	XORQ CX, CX

loop16:
	LEAQ 16(CX), DI
	CMPQ DI, R13
	JGT  step8                      // fewer than 16 columns left
	VXORPD Y0, Y0, Y0               // s = 0; a VEX write clears the upper lanes
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

group16:
	CMPQ AX, BX
	JGE  tail16
	MOVQ (DX)(AX*8), DI             // coefficient row p+q at base+off[p+q]+j
	VMOVUPD (SI)(DI*8), Z8
	VMOVUPD 64(SI)(DI*8), Z9
	VBROADCASTSD (R8)(AX*8), Z10    // m0 = ar[p]·row p
	VBROADCASTSD (R9)(AX*8), Z11
	VBROADCASTSD (R10)(AX*8), Z12
	VBROADCASTSD (R11)(AX*8), Z13
	VMULPD Z8, Z10, Z16
	VMULPD Z9, Z10, Z17
	VMULPD Z8, Z11, Z18
	VMULPD Z9, Z11, Z19
	VMULPD Z8, Z12, Z20
	VMULPD Z9, Z12, Z21
	VMULPD Z8, Z13, Z22
	VMULPD Z9, Z13, Z23

	MOVQ 8(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VMOVUPD 64(SI)(DI*8), Z9
	VBROADCASTSD 8(R8)(AX*8), Z10   // m1 = ar[p+1]·row p+1
	VBROADCASTSD 8(R9)(AX*8), Z11
	VBROADCASTSD 8(R10)(AX*8), Z12
	VBROADCASTSD 8(R11)(AX*8), Z13
	VMULPD Z8, Z10, Z24
	VMULPD Z9, Z10, Z25
	VMULPD Z8, Z11, Z26
	VMULPD Z9, Z11, Z27
	VMULPD Z8, Z12, Z28
	VMULPD Z9, Z12, Z29
	VMULPD Z8, Z13, Z30
	VMULPD Z9, Z13, Z31
	VADDPD Z24, Z16, Z16            // m0+m1
	VADDPD Z25, Z17, Z17
	VADDPD Z26, Z18, Z18
	VADDPD Z27, Z19, Z19
	VADDPD Z28, Z20, Z20
	VADDPD Z29, Z21, Z21
	VADDPD Z30, Z22, Z22
	VADDPD Z31, Z23, Z23

	MOVQ 16(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VMOVUPD 64(SI)(DI*8), Z9
	VBROADCASTSD 16(R8)(AX*8), Z10  // m2
	VBROADCASTSD 16(R9)(AX*8), Z11
	VBROADCASTSD 16(R10)(AX*8), Z12
	VBROADCASTSD 16(R11)(AX*8), Z13
	VMULPD Z8, Z10, Z24
	VMULPD Z9, Z10, Z25
	VMULPD Z8, Z11, Z26
	VMULPD Z9, Z11, Z27
	VMULPD Z8, Z12, Z28
	VMULPD Z9, Z12, Z29
	VMULPD Z8, Z13, Z30
	VMULPD Z9, Z13, Z31
	VADDPD Z24, Z16, Z16            // (m0+m1)+m2
	VADDPD Z25, Z17, Z17
	VADDPD Z26, Z18, Z18
	VADDPD Z27, Z19, Z19
	VADDPD Z28, Z20, Z20
	VADDPD Z29, Z21, Z21
	VADDPD Z30, Z22, Z22
	VADDPD Z31, Z23, Z23

	MOVQ 24(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VMOVUPD 64(SI)(DI*8), Z9
	VBROADCASTSD 24(R8)(AX*8), Z10  // m3
	VBROADCASTSD 24(R9)(AX*8), Z11
	VBROADCASTSD 24(R10)(AX*8), Z12
	VBROADCASTSD 24(R11)(AX*8), Z13
	VMULPD Z8, Z10, Z24
	VMULPD Z9, Z10, Z25
	VMULPD Z8, Z11, Z26
	VMULPD Z9, Z11, Z27
	VMULPD Z8, Z12, Z28
	VMULPD Z9, Z12, Z29
	VMULPD Z8, Z13, Z30
	VMULPD Z9, Z13, Z31
	VADDPD Z24, Z16, Z16            // ((m0+m1)+m2)+m3
	VADDPD Z25, Z17, Z17
	VADDPD Z26, Z18, Z18
	VADDPD Z27, Z19, Z19
	VADDPD Z28, Z20, Z20
	VADDPD Z29, Z21, Z21
	VADDPD Z30, Z22, Z22
	VADDPD Z31, Z23, Z23

	VADDPD Z16, Z0, Z0              // s += group
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z22, Z6, Z6
	VADDPD Z23, Z7, Z7
	ADDQ $4, AX
	JMP  group16

tail16:
	CMPQ AX, R12
	JGE  bias16
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VMOVUPD 64(SI)(DI*8), Z9
	VBROADCASTSD (R8)(AX*8), Z10
	VBROADCASTSD (R9)(AX*8), Z11
	VBROADCASTSD (R10)(AX*8), Z12
	VBROADCASTSD (R11)(AX*8), Z13
	VMULPD Z8, Z10, Z16
	VMULPD Z9, Z10, Z17
	VMULPD Z8, Z11, Z18
	VMULPD Z9, Z11, Z19
	VMULPD Z8, Z12, Z20
	VMULPD Z9, Z12, Z21
	VMULPD Z8, Z13, Z22
	VMULPD Z9, Z13, Z23
	VADDPD Z16, Z0, Z0              // s += ar[p]·B[p][j]
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z22, Z6, Z6
	VADDPD Z23, Z7, Z7
	INCQ AX
	JMP  tail16

bias16:
	VBROADCASTSD b0+72(FP), Z10     // s += bias, after the full dot
	VBROADCASTSD b1+80(FP), Z11
	VBROADCASTSD b2+88(FP), Z12
	VBROADCASTSD b3+96(FP), Z13
	VADDPD Z10, Z0, Z0
	VADDPD Z10, Z1, Z1
	VADDPD Z11, Z2, Z2
	VADDPD Z11, Z3, Z3
	VADDPD Z12, Z4, Z4
	VADDPD Z12, Z5, Z5
	VADDPD Z13, Z6, Z6
	VADDPD Z13, Z7, Z7
	MOVQ relu+104(FP), DI
	TESTQ DI, DI
	JZ   store16
	VXORPD Y8, Y8, Y8               // +0.0 lanes for the rectifier compare
	VCMPPD $0x1e, Z8, Z0, K1        // lanes where s > +0 (GT_OQ: NaN -> false)
	VCMPPD $0x1e, Z8, Z1, K2
	VCMPPD $0x1e, Z8, Z2, K3
	VCMPPD $0x1e, Z8, Z3, K4
	VMOVUPD.Z Z0, K1, Z0            // keep those lanes, others become +0
	VMOVUPD.Z Z1, K2, Z1
	VMOVUPD.Z Z2, K3, Z2
	VMOVUPD.Z Z3, K4, Z3
	VCMPPD $0x1e, Z8, Z4, K1
	VCMPPD $0x1e, Z8, Z5, K2
	VCMPPD $0x1e, Z8, Z6, K3
	VCMPPD $0x1e, Z8, Z7, K4
	VMOVUPD.Z Z4, K1, Z4
	VMOVUPD.Z Z5, K2, Z5
	VMOVUPD.Z Z6, K3, Z6
	VMOVUPD.Z Z7, K4, Z7

store16:
	MOVQ d+0(FP), DI
	LEAQ (DI)(CX*8), DI             // &d[j], then one row (width) apart
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, 64(DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, 64(DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, 64(DI)
	ADDQ $16, CX
	ADDQ $128, SI
	JMP  loop16

// One 8-column step, when 8 or 12 columns are left: the 16-column step
// with one ZMM per channel (Z0-Z3 accumulators, Z16-Z19 group sums,
// Z24-Z27 products).
step8:
	LEAQ 8(CX), DI
	CMPQ DI, R13
	JGT  step4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

group8:
	CMPQ AX, BX
	JGE  tail8
	MOVQ (DX)(AX*8), DI             // coefficient row p+q at base+off[p+q]+j
	VMOVUPD (SI)(DI*8), Z8
	VBROADCASTSD (R8)(AX*8), Z10    // m0 = ar[p]·row p
	VBROADCASTSD (R9)(AX*8), Z11
	VBROADCASTSD (R10)(AX*8), Z12
	VBROADCASTSD (R11)(AX*8), Z13
	VMULPD Z8, Z10, Z16
	VMULPD Z8, Z11, Z17
	VMULPD Z8, Z12, Z18
	VMULPD Z8, Z13, Z19

	MOVQ 8(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VBROADCASTSD 8(R8)(AX*8), Z10   // m1 = ar[p+1]·row p+1
	VBROADCASTSD 8(R9)(AX*8), Z11
	VBROADCASTSD 8(R10)(AX*8), Z12
	VBROADCASTSD 8(R11)(AX*8), Z13
	VMULPD Z8, Z10, Z24
	VMULPD Z8, Z11, Z25
	VMULPD Z8, Z12, Z26
	VMULPD Z8, Z13, Z27
	VADDPD Z24, Z16, Z16            // m0+m1
	VADDPD Z25, Z17, Z17
	VADDPD Z26, Z18, Z18
	VADDPD Z27, Z19, Z19

	MOVQ 16(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VBROADCASTSD 16(R8)(AX*8), Z10  // m2
	VBROADCASTSD 16(R9)(AX*8), Z11
	VBROADCASTSD 16(R10)(AX*8), Z12
	VBROADCASTSD 16(R11)(AX*8), Z13
	VMULPD Z8, Z10, Z24
	VMULPD Z8, Z11, Z25
	VMULPD Z8, Z12, Z26
	VMULPD Z8, Z13, Z27
	VADDPD Z24, Z16, Z16            // (m0+m1)+m2
	VADDPD Z25, Z17, Z17
	VADDPD Z26, Z18, Z18
	VADDPD Z27, Z19, Z19

	MOVQ 24(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VBROADCASTSD 24(R8)(AX*8), Z10  // m3
	VBROADCASTSD 24(R9)(AX*8), Z11
	VBROADCASTSD 24(R10)(AX*8), Z12
	VBROADCASTSD 24(R11)(AX*8), Z13
	VMULPD Z8, Z10, Z24
	VMULPD Z8, Z11, Z25
	VMULPD Z8, Z12, Z26
	VMULPD Z8, Z13, Z27
	VADDPD Z24, Z16, Z16            // ((m0+m1)+m2)+m3
	VADDPD Z25, Z17, Z17
	VADDPD Z26, Z18, Z18
	VADDPD Z27, Z19, Z19

	VADDPD Z16, Z0, Z0              // s += group
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	ADDQ $4, AX
	JMP  group8

tail8:
	CMPQ AX, R12
	JGE  bias8
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VBROADCASTSD (R8)(AX*8), Z10
	VBROADCASTSD (R9)(AX*8), Z11
	VBROADCASTSD (R10)(AX*8), Z12
	VBROADCASTSD (R11)(AX*8), Z13
	VMULPD Z8, Z10, Z16
	VMULPD Z8, Z11, Z17
	VMULPD Z8, Z12, Z18
	VMULPD Z8, Z13, Z19
	VADDPD Z16, Z0, Z0              // s += ar[p]·B[p][j]
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	INCQ AX
	JMP  tail8

bias8:
	VBROADCASTSD b0+72(FP), Z10     // s += bias, after the full dot
	VBROADCASTSD b1+80(FP), Z11
	VBROADCASTSD b2+88(FP), Z12
	VBROADCASTSD b3+96(FP), Z13
	VADDPD Z10, Z0, Z0
	VADDPD Z11, Z1, Z1
	VADDPD Z12, Z2, Z2
	VADDPD Z13, Z3, Z3
	MOVQ relu+104(FP), DI
	TESTQ DI, DI
	JZ   store8
	VXORPD Y8, Y8, Y8               // +0.0 lanes for the rectifier compare
	VCMPPD $0x1e, Z8, Z0, K1        // lanes where s > +0 (GT_OQ: NaN -> false)
	VCMPPD $0x1e, Z8, Z1, K2
	VCMPPD $0x1e, Z8, Z2, K3
	VCMPPD $0x1e, Z8, Z3, K4
	VMOVUPD.Z Z0, K1, Z0            // keep those lanes, others become +0
	VMOVUPD.Z Z1, K2, Z1
	VMOVUPD.Z Z2, K3, Z2
	VMOVUPD.Z Z3, K4, Z3

store8:
	MOVQ d+0(FP), DI
	LEAQ (DI)(CX*8), DI
	VMOVUPD Z0, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Z1, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Z2, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Z3, (DI)
	ADDQ $8, CX
	ADDQ $64, SI

// One 4-column step, when 4 columns are left: convTileAVX2's loop body,
// register for register.
step4:
	CMPQ CX, R13
	JGE  done512
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

group4:
	CMPQ AX, BX
	JGE  tail4
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y4
	MOVQ 8(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y5
	MOVQ 16(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y6
	MOVQ 24(DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y7

	VBROADCASTSD (R8)(AX*8), Y8    // m0
	VBROADCASTSD (R9)(AX*8), Y9
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y10, Y10
	VMULPD Y4, Y11, Y11

	VBROADCASTSD 8(R8)(AX*8), Y12  // m1
	VBROADCASTSD 8(R9)(AX*8), Y13
	VBROADCASTSD 8(R10)(AX*8), Y14
	VBROADCASTSD 8(R11)(AX*8), Y15
	VMULPD Y5, Y12, Y12
	VMULPD Y5, Y13, Y13
	VMULPD Y5, Y14, Y14
	VMULPD Y5, Y15, Y15
	VADDPD Y12, Y8, Y8
	VADDPD Y13, Y9, Y9
	VADDPD Y14, Y10, Y10
	VADDPD Y15, Y11, Y11

	VBROADCASTSD 16(R8)(AX*8), Y12 // m2
	VBROADCASTSD 16(R9)(AX*8), Y13
	VBROADCASTSD 16(R10)(AX*8), Y14
	VBROADCASTSD 16(R11)(AX*8), Y15
	VMULPD Y6, Y12, Y12
	VMULPD Y6, Y13, Y13
	VMULPD Y6, Y14, Y14
	VMULPD Y6, Y15, Y15
	VADDPD Y12, Y8, Y8
	VADDPD Y13, Y9, Y9
	VADDPD Y14, Y10, Y10
	VADDPD Y15, Y11, Y11

	VBROADCASTSD 24(R8)(AX*8), Y12 // m3
	VBROADCASTSD 24(R9)(AX*8), Y13
	VBROADCASTSD 24(R10)(AX*8), Y14
	VBROADCASTSD 24(R11)(AX*8), Y15
	VMULPD Y7, Y12, Y12
	VMULPD Y7, Y13, Y13
	VMULPD Y7, Y14, Y14
	VMULPD Y7, Y15, Y15
	VADDPD Y12, Y8, Y8
	VADDPD Y13, Y9, Y9
	VADDPD Y14, Y10, Y10
	VADDPD Y15, Y11, Y11

	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	ADDQ $4, AX
	JMP  group4

tail4:
	CMPQ AX, R12
	JGE  bias4
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y4
	VBROADCASTSD (R8)(AX*8), Y8
	VBROADCASTSD (R9)(AX*8), Y9
	VBROADCASTSD (R10)(AX*8), Y10
	VBROADCASTSD (R11)(AX*8), Y11
	VMULPD Y4, Y8, Y8
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y10, Y10
	VMULPD Y4, Y11, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	INCQ AX
	JMP  tail4

bias4:
	VBROADCASTSD b0+72(FP), Y4
	VBROADCASTSD b1+80(FP), Y5
	VBROADCASTSD b2+88(FP), Y6
	VBROADCASTSD b3+96(FP), Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	MOVQ relu+104(FP), DI
	TESTQ DI, DI
	JZ   store4
	VXORPD Y4, Y4, Y4
	VCMPPD $0x1e, Y4, Y0, Y8
	VCMPPD $0x1e, Y4, Y1, Y9
	VCMPPD $0x1e, Y4, Y2, Y10
	VCMPPD $0x1e, Y4, Y3, Y11
	VANDPD Y8, Y0, Y0
	VANDPD Y9, Y1, Y1
	VANDPD Y10, Y2, Y2
	VANDPD Y11, Y3, Y3

store4:
	MOVQ d+0(FP), DI
	LEAQ (DI)(CX*8), DI
	VMOVUPD Y0, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Y1, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Y2, (DI)
	LEAQ (DI)(R13*8), DI
	VMOVUPD Y3, (DI)

done512:
	VZEROUPPER
	RET

// func dotTileAVX2(out *float64, stride, rows, lanes int, aT *float64, aoff *int, n int, b0, b1, b2, b3 *float64)
//
// For each 4-lane group c of [0, TileWidth(lanes)) and row r in 0..3:
//
//	acc = +0
//	for p in 0..n-1:   acc += aT[aoff[p] + c]·br[p]
//	out[r·stride + c] = acc      for r < rows and c < lanes
//
// Y0-Y3 are the four rows' accumulators (lane = column of aT), Y4 the aT
// row at p, Y5-Y8 the broadcast br[p] and then the products. Four
// independent add chains keep the adder busy while each chain stays in p
// order. A last group with fewer than four live lanes stores through
// VMASKMOVPD, so no lane past lanes is written.
//
// Registers: SI = &aT[c], DX = aoff, R8-R11 rows b0..b3, AX = p, BX = n,
// R12 = stride·8, R13 = live lanes from c on, R14 = &out[c], CX = rows,
// DI scratch.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), R14
	MOVQ stride+8(FP), R12
	SHLQ $3, R12
	MOVQ rows+16(FP), CX
	MOVQ lanes+24(FP), R13
	MOVQ aT+32(FP), SI
	MOVQ aoff+40(FP), DX
	MOVQ n+48(FP), BX
	MOVQ b0+56(FP), R8
	MOVQ b1+64(FP), R9
	MOVQ b2+72(FP), R10
	MOVQ b3+80(FP), R11

group2:
	VXORPD Y0, Y0, Y0              // acc = +0 per lane, like the Go
	VXORPD Y1, Y1, Y1              // reference's s := 0.0
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dot2:
	CMPQ AX, BX
	JGE  store2
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y4         // aT[aoff[p]+c .. aoff[p]+c+3]
	VBROADCASTSD (R8)(AX*8), Y5
	VBROADCASTSD (R9)(AX*8), Y6
	VBROADCASTSD (R10)(AX*8), Y7
	VBROADCASTSD (R11)(AX*8), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0              // acc += aT[aoff[p]+c]·br[p]
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	INCQ AX
	JMP  dot2

store2:
	CMPQ R13, $4
	JL   tail2
	MOVQ R14, DI
	VMOVUPD Y0, (DI)
	CMPQ CX, $1
	JLE  next2
	ADDQ R12, DI
	VMOVUPD Y1, (DI)
	CMPQ CX, $2
	JLE  next2
	ADDQ R12, DI
	VMOVUPD Y2, (DI)
	CMPQ CX, $3
	JLE  next2
	ADDQ R12, DI
	VMOVUPD Y3, (DI)

next2:
	ADDQ $32, SI
	ADDQ $32, R14
	SUBQ $4, R13
	JG   group2
	VZEROUPPER
	RET

// The last group, with 1-3 live lanes: the mask's first R13 lanes are set.
tail2:
	MOVQ $4, AX
	SUBQ R13, AX
	LEAQ dotTailMask<>(SB), DI
	VMOVUPD (DI)(AX*8), Y4
	MOVQ R14, DI
	VMASKMOVPD Y0, Y4, (DI)
	CMPQ CX, $1
	JLE  done2
	ADDQ R12, DI
	VMASKMOVPD Y1, Y4, (DI)
	CMPQ CX, $2
	JLE  done2
	ADDQ R12, DI
	VMASKMOVPD Y2, Y4, (DI)
	CMPQ CX, $3
	JLE  done2
	ADDQ R12, DI
	VMASKMOVPD Y3, Y4, (DI)

done2:
	VZEROUPPER
	RET

// dotTailMask read at element 4−t is a VMASKMOVPD mask of t leading lanes.
DATA dotTailMask<>+0(SB)/8, $-1
DATA dotTailMask<>+8(SB)/8, $-1
DATA dotTailMask<>+16(SB)/8, $-1
DATA dotTailMask<>+24(SB)/8, $-1
DATA dotTailMask<>+32(SB)/8, $0
DATA dotTailMask<>+40(SB)/8, $0
DATA dotTailMask<>+48(SB)/8, $0
DATA dotTailMask<>+56(SB)/8, $0
GLOBL dotTailMask<>(SB), RODATA|NOPTR, $64

// func dotTileAVX512(out *float64, stride, rows, lanes int, aT *float64, aoff *int, n int, b0, b1, b2, b3 *float64)
//
// dotTileAVX2's contract and per-lane chain, sixteen lanes per step: each
// row's accumulator is two ZMM registers (eight lanes each), so one aT
// row at p feeds 64 independent sums. A TileWidth(lanes) that is not a
// multiple of 16 ends with at most one 8-lane step (one ZMM per row) and
// at most one 4-lane step, whose arithmetic is dotTileAVX2's loop body
// unchanged. Every lane still computes
//
//	acc = +0; acc += aT[aoff[p]+c]·br[p] for p in order
//
// with separate VMULPD/VADDPD (no FMA). Dead lanes (at most three) sit
// only in the tile's last four, so every register but a step's last is
// stored whole. The last is stored through an opmask: K3 sets all eight
// lanes, K4 the live lanes of the tile's last eight and K5 those of its
// last four, so the register holding the last lanes writes only the live
// ones. A row past rows is not stored.
//
// In the 16-lane loop Z0-Z7 are the accumulators (row r in Z(2r) and
// Z(2r+1): lanes 0-7 and 8-15), Z8-Z9 the aT row at p, Z10-Z13 the four
// broadcast br[p] and Z16-Z23 the products, laid out like the
// accumulators.
//
// Registers: SI = &aT[c], DX = aoff, R8-R11 rows b0..b3, AX = p, BX = n,
// R12 = stride·8, R13 = lanes left to compute (a multiple of 4),
// R14 = &out[c], CX = rows, DI scratch.
TEXT ·dotTileAVX512(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), R14
	MOVQ stride+8(FP), R12
	SHLQ $3, R12
	MOVQ lanes+24(FP), CX
	LEAQ 3(CX), R13
	ANDQ $-4, R13                   // R13 = TileWidth(lanes)
	SUBQ R13, CX
	ADDQ $4, CX                     // CX = live lanes of the last group, 1..4
	MOVL $1, DI
	SHLL CX, DI
	DECL DI
	KMOVW DI, K5                    // the last group's live lanes
	SHLL $4, DI
	ORL  $15, DI
	KMOVW DI, K4                    // the last eight lanes' live lanes
	MOVL $255, DI
	KMOVW DI, K3                    // all eight lanes
	MOVQ rows+16(FP), CX
	MOVQ aT+32(FP), SI
	MOVQ aoff+40(FP), DX
	MOVQ n+48(FP), BX
	MOVQ b0+56(FP), R8
	MOVQ b1+64(FP), R9
	MOVQ b2+72(FP), R10
	MOVQ b3+80(FP), R11

loop16d:
	CMPQ R13, $16
	JLT  step8d                     // fewer than 16 lanes left
	VXORPD Y0, Y0, Y0               // acc = +0; a VEX write clears the upper lanes
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX

dot16:
	CMPQ AX, BX
	JGE  store16d
	MOVQ (DX)(AX*8), DI             // aT row p at aT + aoff[p] + c
	VMOVUPD (SI)(DI*8), Z8
	VMOVUPD 64(SI)(DI*8), Z9
	VBROADCASTSD (R8)(AX*8), Z10
	VBROADCASTSD (R9)(AX*8), Z11
	VBROADCASTSD (R10)(AX*8), Z12
	VBROADCASTSD (R11)(AX*8), Z13
	VMULPD Z8, Z10, Z16
	VMULPD Z9, Z10, Z17
	VMULPD Z8, Z11, Z18
	VMULPD Z9, Z11, Z19
	VMULPD Z8, Z12, Z20
	VMULPD Z9, Z12, Z21
	VMULPD Z8, Z13, Z22
	VMULPD Z9, Z13, Z23
	VADDPD Z16, Z0, Z0              // acc += aT[aoff[p]+c]·br[p]
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	VADDPD Z20, Z4, Z4
	VADDPD Z21, Z5, Z5
	VADDPD Z22, Z6, Z6
	VADDPD Z23, Z7, Z7
	INCQ AX
	JMP  dot16

store16d:
	KMOVW K3, K2                    // the upper register's mask: all lanes,
	CMPQ R13, $16                   // or the live ones in the last step
	JNE  st16d
	KMOVW K4, K2

st16d:
	MOVQ R14, DI
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, K2, 64(DI)
	CMPQ CX, $1
	JLE  next16d
	ADDQ R12, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, K2, 64(DI)
	CMPQ CX, $2
	JLE  next16d
	ADDQ R12, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, K2, 64(DI)
	CMPQ CX, $3
	JLE  next16d
	ADDQ R12, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, K2, 64(DI)

next16d:
	ADDQ $128, SI
	ADDQ $128, R14
	SUBQ $16, R13
	JMP  loop16d

// One 8-lane step, when 8 or 12 lanes are left: the 16-lane step with one
// ZMM per row (Z0-Z3 accumulators, Z16-Z19 products).
step8d:
	CMPQ R13, $8
	JLT  step4d
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dot8:
	CMPQ AX, BX
	JGE  store8d
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Z8
	VBROADCASTSD (R8)(AX*8), Z10
	VBROADCASTSD (R9)(AX*8), Z11
	VBROADCASTSD (R10)(AX*8), Z12
	VBROADCASTSD (R11)(AX*8), Z13
	VMULPD Z8, Z10, Z16
	VMULPD Z8, Z11, Z17
	VMULPD Z8, Z12, Z18
	VMULPD Z8, Z13, Z19
	VADDPD Z16, Z0, Z0
	VADDPD Z17, Z1, Z1
	VADDPD Z18, Z2, Z2
	VADDPD Z19, Z3, Z3
	INCQ AX
	JMP  dot8

store8d:
	KMOVW K3, K2
	CMPQ R13, $8
	JNE  st8d
	KMOVW K4, K2

st8d:
	MOVQ R14, DI
	VMOVUPD Z0, K2, (DI)
	CMPQ CX, $1
	JLE  next8d
	ADDQ R12, DI
	VMOVUPD Z1, K2, (DI)
	CMPQ CX, $2
	JLE  next8d
	ADDQ R12, DI
	VMOVUPD Z2, K2, (DI)
	CMPQ CX, $3
	JLE  next8d
	ADDQ R12, DI
	VMOVUPD Z3, K2, (DI)

next8d:
	ADDQ $64, SI
	ADDQ $64, R14
	SUBQ $8, R13

// One 4-lane step, when 4 lanes are left: dotTileAVX2's loop body,
// register for register; it is always the last step, so it stores
// through K5.
step4d:
	CMPQ R13, $4
	JLT  done512d
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

dot4d:
	CMPQ AX, BX
	JGE  store4d
	MOVQ (DX)(AX*8), DI
	VMOVUPD (SI)(DI*8), Y4
	VBROADCASTSD (R8)(AX*8), Y5
	VBROADCASTSD (R9)(AX*8), Y6
	VBROADCASTSD (R10)(AX*8), Y7
	VBROADCASTSD (R11)(AX*8), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	INCQ AX
	JMP  dot4d

store4d:
	MOVQ R14, DI
	VMOVUPD Y0, K5, (DI)
	CMPQ CX, $1
	JLE  done512d
	ADDQ R12, DI
	VMOVUPD Y1, K5, (DI)
	CMPQ CX, $2
	JLE  done512d
	ADDQ R12, DI
	VMOVUPD Y2, K5, (DI)
	CMPQ CX, $3
	JLE  done512d
	ADDQ R12, DI
	VMOVUPD Y3, K5, (DI)

done512d:
	VZEROUPPER
	RET

// func cpuKernel() int
//
// CPUID/XGETBV probe, returning the best tile kernel body the host runs:
// 0 for the Go bodies; 1 (AVX2) with OSXSAVE, AVX, AVX2 and OS-enabled
// XMM and YMM state; 2 (AVX-512) when AVX512F and AVX512VL are present
// too and the OS also enables the opmask, ZMM_Hi256 and Hi16_ZMM state
// (XCR0 & 0xE6 == 0xE6).
TEXT ·cpuKernel(SB), NOSPLIT, $0-8
	MOVQ $0, AX
	CPUID
	CMPQ AX, $7
	JL   generic             // no leaf 7 -> no AVX2
	MOVQ $1, AX
	CPUID
	MOVL CX, R8
	TESTL $(1<<27), R8       // OSXSAVE
	JZ   generic
	TESTL $(1<<28), R8       // AVX
	JZ   generic
	XORL CX, CX
	XGETBV
	MOVL AX, R9              // XCR0, kept for the AVX-512 state check
	ANDL $6, AX              // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  generic
	MOVQ $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX        // AVX2
	JZ   generic
	ANDL $0xe6, R9           // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM state
	CMPL R9, $0xe6
	JNE  avx2
	ANDL $0x80010000, BX     // AVX512VL (bit 31) and AVX512F (bit 16)
	CMPL BX, $0x80010000
	JNE  avx2
	MOVQ $2, ret+0(FP)
	RET

avx2:
	MOVQ $1, ret+0(FP)
	RET

generic:
	MOVQ $0, ret+0(FP)
	RET
