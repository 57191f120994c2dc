// Package dct implements the discrete cosine transform used by the paper's
// feature tensor generation (§3): orthonormal 1-D and 2-D DCT-II (forward)
// and DCT-III (inverse), a truncated 2-D forward transform that computes
// only the low-frequency corner needed after zig-zag truncation, and the
// JPEG zig-zag scan order.
//
// The orthonormal convention is used (the paper writes the unnormalized sum;
// normalization is a fixed diagonal scaling absorbed by training) so that
// the inverse is exactly the transpose and truncation error equals dropped
// coefficient energy (Parseval).
package dct

import (
	"fmt"
	"math"
	"sync"
)

// basisCache memoizes the N×N orthonormal DCT-II basis matrices.
var basisCache sync.Map // int -> []float64 (N*N row-major, row = frequency)

// Basis returns the N×N orthonormal DCT-II basis matrix C where
// C[u][x] = a(u) * cos(pi*(2x+1)*u / (2N)), a(0)=sqrt(1/N), a(u>0)=sqrt(2/N).
// Rows are frequencies; C·x computes the DCT of a length-N signal, and Cᵀ·X
// inverts it.
func Basis(n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("dct: basis size must be positive, got %d", n))
	}
	if v, ok := basisCache.Load(n); ok { //hsd:allow hotlint one atomic read of an immutable memo table; contention-free after first use
		return v.([]float64)
	}
	c := make([]float64, n*n)
	a0 := math.Sqrt(1 / float64(n))
	au := math.Sqrt(2 / float64(n))
	for u := 0; u < n; u++ {
		amp := au
		if u == 0 {
			amp = a0
		}
		for x := 0; x < n; x++ {
			c[u*n+x] = amp * math.Cos(math.Pi*float64(2*x+1)*float64(u)/(2*float64(n)))
		}
	}
	basisCache.Store(n, c) //hsd:allow hotlint first-use table build; duplicate stores race benignly with identical values
	return c
}

// Forward1D computes the orthonormal DCT-II of src into a new slice.
func Forward1D(src []float64) []float64 {
	n := len(src)
	c := Basis(n)
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		row := c[u*n : (u+1)*n]
		s := 0.0
		for x, v := range src {
			s += row[x] * v
		}
		out[u] = s
	}
	return out
}

// Inverse1D computes the orthonormal DCT-III (inverse of Forward1D).
func Inverse1D(src []float64) []float64 {
	n := len(src)
	c := Basis(n)
	out := make([]float64, n)
	for x := 0; x < n; x++ {
		s := 0.0
		for u, v := range src {
			s += c[u*n+x] * v
		}
		out[x] = s
	}
	return out
}

// Forward2D computes the 2-D orthonormal DCT-II of an h×w row-major block.
// Output index (u, v) is vertical frequency u, horizontal frequency v.
func Forward2D(src []float64, h, w int) ([]float64, error) {
	if len(src) != h*w {
		return nil, fmt.Errorf("dct: block length %d does not match %dx%d", len(src), h, w)
	}
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("dct: block dimensions must be positive (%dx%d)", h, w)
	}
	ch, cw := Basis(h), Basis(w)
	// tmp = src · Cwᵀ  (transform rows)
	tmp := make([]float64, h*w)
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		for v := 0; v < w; v++ {
			basis := cw[v*w : (v+1)*w]
			s := 0.0
			for x, sv := range row {
				s += sv * basis[x]
			}
			tmp[y*w+v] = s
		}
	}
	// out = Ch · tmp  (transform columns)
	out := make([]float64, h*w)
	for u := 0; u < h; u++ {
		basis := ch[u*h : (u+1)*h]
		for v := 0; v < w; v++ {
			s := 0.0
			for y := 0; y < h; y++ {
				s += basis[y] * tmp[y*w+v]
			}
			out[u*w+v] = s
		}
	}
	return out, nil
}

// Inverse2D inverts Forward2D.
func Inverse2D(src []float64, h, w int) ([]float64, error) {
	if len(src) != h*w {
		return nil, fmt.Errorf("dct: block length %d does not match %dx%d", len(src), h, w)
	}
	if h <= 0 || w <= 0 {
		return nil, fmt.Errorf("dct: block dimensions must be positive (%dx%d)", h, w)
	}
	ch, cw := Basis(h), Basis(w)
	// tmp = Chᵀ · src  (inverse columns)
	tmp := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for v := 0; v < w; v++ {
			s := 0.0
			for u := 0; u < h; u++ {
				s += ch[u*h+y] * src[u*w+v]
			}
			tmp[y*w+v] = s
		}
	}
	// out = tmp · Cw  (inverse rows)
	out := make([]float64, h*w)
	for y := 0; y < h; y++ {
		row := tmp[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			s := 0.0
			for v, tv := range row {
				s += tv * cw[v*w+x]
			}
			out[y*w+x] = s
		}
	}
	return out, nil
}

// ForwardTruncated2D computes only the top-left kh×kw corner (the lowest
// frequencies) of the 2-D DCT of an h×w block. Because zig-zag truncation
// keeps only low-frequency coefficients, this is all feature extraction
// needs, and it cuts the per-block cost from O(h·w·(h+w)) to
// O(h·w·kh + h·kh·kw).
func ForwardTruncated2D(src []float64, h, w, kh, kw int) ([]float64, error) {
	out := make([]float64, kh*kw)
	tmp := make([]float64, h*kw)
	if err := ForwardTruncated2DInto(out, tmp, src, h, w, kh, kw); err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardTruncated2DInto is ForwardTruncated2D writing into caller storage:
// dst receives the kh×kw corner (len kh*kw) and tmp is row-transform
// scratch (len h*kw). Nothing is allocated, so a block cache that
// transforms every block of a full die can run the whole sweep out of
// per-worker buffers. Results are bit-identical to ForwardTruncated2D.
func ForwardTruncated2DInto(dst, tmp, src []float64, h, w, kh, kw int) error {
	if len(src) != h*w {
		return fmt.Errorf("dct: block length %d does not match %dx%d", len(src), h, w)
	}
	if kh <= 0 || kw <= 0 || kh > h || kw > w {
		return fmt.Errorf("dct: truncation %dx%d invalid for block %dx%d", kh, kw, h, w)
	}
	if len(dst) != kh*kw {
		return fmt.Errorf("dct: dst length %d does not match corner %dx%d", len(dst), kh, kw)
	}
	if len(tmp) != h*kw {
		return fmt.Errorf("dct: tmp length %d does not match %dx%d scratch", len(tmp), h, kw)
	}
	forwardTruncatedInto(dst, tmp, src, Basis(h), Basis(w), h, w, kh, kw)
	return nil
}

// forwardTruncatedInto is the validated kernel behind ForwardTruncated2DInto:
// rows are transformed against the first kw basis rows into tmp, then
// columns against the first kh, with the exact per-element summation order
// of the original ForwardTruncated2D loops.
//
//hsd:noalloc
func forwardTruncatedInto(dst, tmp, src, ch, cw []float64, h, w, kh, kw int) {
	// tmp[y][v] for v < kw
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		for v := 0; v < kw; v++ {
			basis := cw[v*w : (v+1)*w]
			s := 0.0
			for x, sv := range row {
				s += sv * basis[x]
			}
			tmp[y*kw+v] = s
		}
	}
	for u := 0; u < kh; u++ {
		basis := ch[u*h : (u+1)*h]
		for v := 0; v < kw; v++ {
			s := 0.0
			for y := 0; y < h; y++ {
				s += basis[y] * tmp[y*kw+v]
			}
			dst[u*kw+v] = s
		}
	}
}
