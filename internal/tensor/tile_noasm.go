//go:build !amd64

package tensor

// useAVX2 is always false off amd64; the pure-Go tile bodies run.
const useAVX2 = false

// convTileAVX2 is never called when useAVX2 is false; this stub keeps the
// package compiling on architectures without the assembly kernel.
//
//hsd:noalloc
func convTileAVX2(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64) {
	panic("tensor: convTileAVX2 called without AVX2 support")
}

// dotTileAVX2 is never called when useAVX2 is false, like convTileAVX2.
//
//hsd:noalloc
func dotTileAVX2(s *[16]float64, aT *float64, ld int, b0, b1, b2, b3 *float64, n int) {
	panic("tensor: dotTileAVX2 called without AVX2 support")
}

// WithGenericKernels runs f; off amd64 the tile kernels only have their
// pure-Go bodies.
func WithGenericKernels(f func()) { f() }
