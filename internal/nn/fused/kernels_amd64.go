package fused

// useAVX2 gates the assembly tile kernel. The probe checks CPUID for AVX2
// and XGETBV for OS-enabled YMM state, so the binary stays correct on any
// amd64 machine; non-AVX2 hosts take the same pure-Go blocked kernels as
// other architectures.
var useAVX2 = cpuHasAVX2()

// convTileAVX2 computes one 4-channel conv tile: for r in 0..3 and each
// virtual column j in [0, width),
//
//	d[r·width + j] = rectify?(ar · B[·][j] + br),  B[p][j] = base[off[p] + j]
//
// where a0..a3 each hold k coefficients and off holds k row offsets.
// width must be a positive multiple of 4, and base must hold
// max(off) + width elements. relu != 0 applies the strict v > 0 rectifier.
//
// Each YMM lane is one output element, and every lane executes the layered
// kernel's exact scalar operation sequence: 4-wide coefficient groups
// summed left-associatively with separate multiply and add instructions
// (no FMA contraction), singles for the k remainder, bias after the full
// dot. The four channels share each coefficient-row load but never each
// other's arithmetic, so the output equals block4's bit for bit
// (NaN payloads aside; see DESIGN.md §12).
//
//go:noescape
func convTileAVX2(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64)

// cpuHasAVX2 reports AVX2 support with OS-enabled YMM state (CPUID +
// XGETBV; implemented in kernels_amd64.s).
func cpuHasAVX2() bool
