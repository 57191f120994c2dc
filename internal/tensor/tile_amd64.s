// AVX2 tile kernels and CPU feature detection for the tensor products the
// fused inference engine and the layered Conv2D run. See tile_amd64.go for
// the calling contracts and the bit-for-bit parity argument; the short
// version is that vector lanes are independent output elements, every lane
// executes the exact scalar operation sequence of the Go reference kernel
// (separate VMULPD/VADDPD — no FMA contraction, which would change
// results), and the rectifier is a GT_OQ compare-and-mask so NaN and -0
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

// func dotTileAVX2(s *[16]float64, aT *float64, ld int, b0, b1, b2, b3 *float64, n int)
//
// For each lane c in 0..3 and row r in 0..3:
//
//	acc = +0
//	for p in 0..n-1:   acc += aT[p·ld + c]·br[p]
//	s[4·r + c] = acc
//
// Y0-Y3 are the four rows' accumulators (lane c = column c of aT), Y4 the
// aT row at p, Y5-Y8 the broadcast br[p] and then the products. Four
// independent add chains keep the adder busy while each chain stays in p
// order.
//
// Registers: SI = &aT[p·ld], DX = ld·8, R8-R11 rows b0..b3, AX = p, CX = n.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-64
	MOVQ aT+8(FP), SI
	MOVQ ld+16(FP), DX
	SHLQ $3, DX
	MOVQ b0+24(FP), R8
	MOVQ b1+32(FP), R9
	MOVQ b2+40(FP), R10
	MOVQ b3+48(FP), R11
	MOVQ n+56(FP), CX
	VXORPD Y0, Y0, Y0              // acc = +0 per lane, like the Go
	VXORPD Y1, Y1, Y1              // reference's s := 0.0
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

loopdot:
	CMPQ AX, CX
	JGE  dotdone
	VMOVUPD (SI), Y4               // aT[p·ld .. p·ld+3]
	VBROADCASTSD (R8)(AX*8), Y5
	VBROADCASTSD (R9)(AX*8), Y6
	VBROADCASTSD (R10)(AX*8), Y7
	VBROADCASTSD (R11)(AX*8), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0              // acc += aT[p·ld + c]·br[p]
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ DX, SI
	INCQ AX
	JMP  loopdot

dotdone:
	MOVQ s+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// CPUID/XGETBV probe: OSXSAVE + AVX + OS-enabled YMM state + AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVQ $0, AX
	CPUID
	CMPQ AX, $7
	JL   no                  // no leaf 7 -> no AVX2
	MOVQ $1, AX
	CPUID
	MOVL CX, R8
	TESTL $(1<<27), R8       // OSXSAVE
	JZ   no
	TESTL $(1<<28), R8       // AVX
	JZ   no
	XORL CX, CX
	XGETBV
	ANDL $6, AX              // XCR0: XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVQ $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX        // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
