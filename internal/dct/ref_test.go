package dct

import "fmt"

// The allocating transforms below have only test callers: production code
// transforms blocks through Truncated and decodes through Inverse2D. They
// stay here as plain-loop references for the round-trip, Parseval and
// truncation tests.

// forward1D computes the orthonormal DCT-II of src into a new slice.
func forward1D(src []float64) []float64 {
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

// inverse1D computes the orthonormal DCT-III (inverse of forward1D).
func inverse1D(src []float64) []float64 {
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

// forward2D computes the 2-D orthonormal DCT-II of an h×w row-major block.
// Output index (u, v) is vertical frequency u, horizontal frequency v.
func forward2D(src []float64, h, w int) ([]float64, error) {
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

// forwardTruncated2D is ForwardTruncated2DInto into fresh buffers.
func forwardTruncated2D(src []float64, h, w, kh, kw int) ([]float64, error) {
	t, err := NewTruncated(h, w, kh, kw)
	if err != nil {
		return nil, err
	}
	out := make([]float64, kh*kw)
	if err := ForwardTruncated2DInto(out, make([]float64, t.TmpLen()), src, h, w, kh, kw); err != nil {
		return nil, err
	}
	return out, nil
}

// truncatedLoops is the truncated transform as two passes of plain
// sequential dot products, with a source row stride: the kernel
// Truncated.Forward replaced, kept as its bit-exactness oracle. tmp holds
// h·kw elements.
func truncatedLoops(dst, tmp, src []float64, stride, h, w, kh, kw int) {
	ch, cw := Basis(h), Basis(w)
	for y := 0; y < h; y++ {
		row := src[y*stride : y*stride+w]
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
