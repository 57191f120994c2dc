//go:build !amd64

package tensor

// probed is always the pure-Go body off amd64.
const probed = kernelGeneric

// convTileAVX2 is never called off amd64, where the kernel is always
// kernelGeneric; this stub keeps the package compiling on architectures
// without the assembly kernels.
//
//hsd:noalloc
func convTileAVX2(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64) {
	panic("tensor: convTileAVX2 called without AVX2 support")
}

// convTileAVX512 is never called off amd64, like convTileAVX2.
//
//hsd:noalloc
func convTileAVX512(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64) {
	panic("tensor: convTileAVX512 called without AVX-512 support")
}

// dotTileAVX2 is never called off amd64, like convTileAVX2.
//
//hsd:noalloc
func dotTileAVX2(out *float64, stride, rows, lanes int, aT *float64, aoff *int, n int, b0, b1, b2, b3 *float64) {
	panic("tensor: dotTileAVX2 called without AVX2 support")
}

// dotTileAVX512 is never called off amd64, like convTileAVX2.
//
//hsd:noalloc
func dotTileAVX512(out *float64, stride, rows, lanes int, aT *float64, aoff *int, n int, b0, b1, b2, b3 *float64) {
	panic("tensor: dotTileAVX512 called without AVX-512 support")
}
