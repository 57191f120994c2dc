//go:build !amd64

package fused

// useAVX2 is always false off amd64; the pure-Go blocked kernels run.
const useAVX2 = false

// convTileAVX2 is never called when useAVX2 is false; this stub keeps the
// package compiling on architectures without the assembly kernel.
//hsd:noalloc
func convTileAVX2(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64) {
	panic("fused: convTileAVX2 called without AVX2 support")
}
