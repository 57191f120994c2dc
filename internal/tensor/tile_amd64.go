package tensor

// probed is the tile kernel body this host runs. The probe checks CPUID
// for the instruction sets and XGETBV for the register state the OS
// enables, so the binary stays correct on any amd64 machine: a host
// without AVX2 takes the same pure-Go bodies as other architectures, and
// one without AVX-512 (or whose OS does not save the ZMM and opmask
// registers) keeps the AVX2 bodies.
var probed = kernelBody(cpuKernel())

// convTileAVX2 computes one 4-row product tile: for r in 0..3 and each
// virtual column j in [0, width),
//
//	d[r·width + j] = rectify?(ar · B[·][j] + br),  B[p][j] = base[off[p] + j]
//
// where a0..a3 each hold k coefficients and off holds k row offsets.
// width must be a positive multiple of 4, and base must hold
// max(off) + width elements. relu != 0 applies the strict v > 0 rectifier.
//
// Each YMM lane is one output element, and every lane executes the
// reference kernel's exact scalar operation sequence: 4-wide coefficient
// groups summed left-associatively with separate multiply and add
// instructions (no FMA contraction), singles for the k remainder, bias
// after the full dot. The four rows share each coefficient-row load but
// never each other's arithmetic, so the output equals block4's bit for bit
// (NaN payloads aside; see DESIGN.md §12).
//
//go:noescape
func convTileAVX2(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64)

// convTileAVX512 is convTileAVX2 on ZMM registers: the same contract and
// the same per-lane operation sequence, sixteen columns per step (two
// 8-lane registers per row), then at most one 8-column and one 4-column
// step for the rest of the width. Its output equals block4's bit for bit
// (NaN payloads aside).
//
//go:noescape
func convTileAVX512(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64)

// dotTileAVX2 computes a 4×4 block of dot products: for r, c in 0..3,
//
//	s[4·r + c] = Σ_{p<n} aT[p·ld + c] · br[p]
//
// where b0..b3 each hold n elements and aT holds (n−1)·ld + 4. Each lane
// of a YMM accumulator is one sum, started at +0 and advanced in p order
// with separate multiply and add instructions, so it equals dot4's bit for
// bit (NaN payloads aside).
//
//go:noescape
func dotTileAVX2(s *[16]float64, aT *float64, ld int, b0, b1, b2, b3 *float64, n int)

// cpuKernel returns the best tile kernel body the host runs, a kernelBody
// (CPUID + XGETBV; implemented in tile_amd64.s).
func cpuKernel() int
