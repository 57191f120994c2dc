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

// dotTileAVX2 computes DotTile's rows of lane-wide dot products: for
// r < 4 and each lane c of [0, TileWidth(lanes)),
//
//	acc = Σ_{p<n} aT[aoff[p] + c] · br[p],  stored at out[r·stride + c]
//
// for r < rows and c < lanes only, where b0..b3 each hold n elements and
// aT holds max(aoff) + TileWidth(lanes). Each lane of a YMM accumulator is
// one sum, four lanes per step, started at +0 and advanced in p order with
// separate multiply and add instructions, so it equals dot4's bit for bit
// (NaN payloads aside). A last step with fewer than four live lanes stores
// through a lane mask.
//
//go:noescape
func dotTileAVX2(out *float64, stride, rows, lanes int, aT *float64, aoff *int, n int, b0, b1, b2, b3 *float64)

// dotTileAVX512 is dotTileAVX2 on ZMM registers: the same contract and the
// same per-lane chain, sixteen lanes per step (two 8-lane registers per
// row), then at most one 8-lane and one 4-lane step, the last of which is
// dotTileAVX2's. Opmask stores write only the live lanes. Its output
// equals dot4's bit for bit (NaN payloads aside).
//
//go:noescape
func dotTileAVX512(out *float64, stride, rows, lanes int, aT *float64, aoff *int, n int, b0, b1, b2, b3 *float64)

// cpuKernel returns the best tile kernel body the host runs, a kernelBody
// (CPUID + XGETBV; implemented in tile_amd64.s).
func cpuKernel() int
