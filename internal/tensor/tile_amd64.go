package tensor

// useAVX2 gates the assembly tile kernels. The probe checks CPUID for AVX2
// and XGETBV for OS-enabled YMM state, so the binary stays correct on any
// amd64 machine; non-AVX2 hosts take the same pure-Go bodies as other
// architectures.
var useAVX2 = cpuHasAVX2()

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

// cpuHasAVX2 reports AVX2 support with OS-enabled YMM state (CPUID +
// XGETBV; implemented in tile_amd64.s).
func cpuHasAVX2() bool

// WithGenericKernels runs f with the tile kernels on their pure-Go bodies,
// then restores the probed choice. Parity tests use it to cover the bodies
// an AVX2 host would otherwise never run; no tile kernel may run on another
// goroutine meanwhile.
func WithGenericKernels(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}
