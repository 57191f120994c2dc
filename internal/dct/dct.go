// Package dct implements the discrete cosine transform used by the paper's
// feature tensor generation (§3): the orthonormal DCT-II basis, a
// truncated 2-D forward transform that computes only the low-frequency
// corner needed after zig-zag truncation, the DCT-III inverses that
// decode a feature tensor, and the JPEG zig-zag scan order.
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

	"hotspot/internal/tensor"
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

// Inverse2D computes the 2-D orthonormal DCT-III of an h×w row-major
// coefficient block, the exact transpose of the forward transform.
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
				s += float64(ch[u*h+y] * src[u*w+v])
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
				s += float64(tv * cw[v*w+x])
			}
			out[y*w+x] = s
		}
	}
	return out, nil
}

// basisTCache memoizes the row pass's transposed basis tables.
var basisTCache sync.Map // [2]int{n, k} -> []float64

// basisT returns the first k rows of Basis(n) transposed into n rows of
// stride TileWidth(k): t[x·ld + v] = C[v][x] for v < k, and 0 in the
// padding columns. One vector load then reads four frequencies at one x,
// which is the layout the dot tile's aT operand takes.
func basisT(n, k int) []float64 {
	key := [2]int{n, k}
	if v, ok := basisTCache.Load(key); ok { //hsd:allow hotlint one atomic read of an immutable memo table; contention-free after first use
		return v.([]float64)
	}
	c := Basis(n)
	ld := tensor.TileWidth(k)
	t := make([]float64, n*ld)
	for v := 0; v < k; v++ {
		for x := 0; x < n; x++ {
			t[x*ld+v] = c[v*n+x]
		}
	}
	basisTCache.Store(key, t) //hsd:allow hotlint first-use table build; duplicate stores race benignly with identical values
	return t
}

// Truncated computes the top-left kh×kw corner (the lowest frequencies)
// of the 2-D DCT of h×w blocks. Because zig-zag truncation keeps only
// low-frequency coefficients, this is all feature extraction needs, and it
// cuts the per-block cost from O(h·w·(h+w)) to O(h·w·kw + h·kh·kw). The
// shape is validated and the basis tables are resolved once, at
// NewTruncated, so a caller transforming every block of a clip or a die
// pays neither per block.
type Truncated struct {
	h, w, kh, kw int
	ch, cwT      []float64
}

// NewTruncated validates an h×w block truncated to its kh×kw corner.
func NewTruncated(h, w, kh, kw int) (Truncated, error) {
	if kh <= 0 || kw <= 0 || kh > h || kw > w {
		return Truncated{}, fmt.Errorf("dct: truncation %dx%d invalid for block %dx%d", kh, kw, h, w)
	}
	return Truncated{h: h, w: w, kh: kh, kw: kw, ch: Basis(h), cwT: basisT(w, kw)}, nil
}

// TmpLen returns the length of the row-transform scratch Forward takes:
// h rows of the kw transformed columns, padded to TileWidth(kw).
func (t *Truncated) TmpLen() int { return t.h * tensor.TileWidth(t.kw) }

// Forward writes the kh×kw corner of the block whose row y is
// src[y·stride : y·stride+w] into dst (row-major, at least kh·kw long),
// using tmp (TmpLen elements) as scratch. A block inside a larger image is
// read in place by passing the image's row stride.
//
// Both passes run on the dot tile: the row pass dots four block rows with
// four basis rows at a time, the column pass four basis rows with four
// tmp columns. Each coefficient is still one sequential dot product,
// started at +0 and accumulated in index order, so the result is the one
// the plain loops produce (see DESIGN.md §12).
//
//hsd:noalloc
func (t *Truncated) Forward(dst, tmp, src []float64, stride int) {
	h, w, kh, kw := t.h, t.w, t.kh, t.kw
	ld := tensor.TileWidth(kw)
	var s [16]float64
	// Row pass: tmp[y][v] = Σ_x src[y][x]·Cw[v][x]. Rows past the last
	// live one repeat it, and the padding columns multiply zero basis
	// entries; neither is read into dst.
	for y := 0; y < h; y += tensor.TileRows {
		r1, r2, r3 := min(y+1, h-1), min(y+2, h-1), min(y+3, h-1)
		b0, b1 := src[y*stride:y*stride+w], src[r1*stride:r1*stride+w]
		b2, b3 := src[r2*stride:r2*stride+w], src[r3*stride:r3*stride+w]
		for v := 0; v < ld; v += tensor.TileRows {
			tensor.DotTile(&s, t.cwT[v:], ld, b0, b1, b2, b3)
			for r := 0; r < tensor.TileRows && y+r < h; r++ {
				o := tmp[(y+r)*ld+v : (y+r)*ld+v+4]
				o[0], o[1], o[2], o[3] = s[4*r], s[4*r+1], s[4*r+2], s[4*r+3]
			}
		}
	}
	// Column pass: dst[u][v] = Σ_y Ch[u][y]·tmp[y][v].
	for u := 0; u < kh; u += tensor.TileRows {
		r1, r2, r3 := min(u+1, kh-1), min(u+2, kh-1), min(u+3, kh-1)
		b0, b1 := t.ch[u*h:u*h+h], t.ch[r1*h:r1*h+h]
		b2, b3 := t.ch[r2*h:r2*h+h], t.ch[r3*h:r3*h+h]
		for v := 0; v < kw; v += tensor.TileRows {
			tensor.DotTile(&s, tmp[v:], ld, b0, b1, b2, b3)
			for r := 0; r < tensor.TileRows && u+r < kh; r++ {
				for c := 0; c < tensor.TileRows && v+c < kw; c++ {
					dst[(u+r)*kw+v+c] = s[tensor.TileRows*r+c]
				}
			}
		}
	}
}

// ForwardTruncated2DInto writes the kh×kw corner of the 2-D DCT of the
// row-major h×w block src into dst (len kh*kw), with tmp
// (len h*TileWidth(kw)) as row-transform scratch. Nothing is allocated
// once the shape's basis tables exist. It validates every length and runs
// Truncated.Forward.
func ForwardTruncated2DInto(dst, tmp, src []float64, h, w, kh, kw int) error {
	if len(src) != h*w {
		return fmt.Errorf("dct: block length %d does not match %dx%d", len(src), h, w)
	}
	t, err := NewTruncated(h, w, kh, kw)
	if err != nil {
		return err
	}
	if len(dst) != kh*kw {
		return fmt.Errorf("dct: dst length %d does not match corner %dx%d", len(dst), kh, kw)
	}
	if len(tmp) != t.TmpLen() {
		return fmt.Errorf("dct: tmp length %d does not match %dx%d scratch", len(tmp), h, tensor.TileWidth(kw))
	}
	t.Forward(dst, tmp, src, w)
	return nil
}
