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

// Forward writes the kh×kw corner of an h×w block into dst (row-major,
// at least kh·kw long), using tmp (TmpLen elements) as scratch. src holds
// the block's distinct rows, stride apart: the k-th row the block does
// not repeat is src[k·stride : k·stride+w]. A block inside a larger image
// or a raster.Rows is read in place by passing its row stride.
//
// rep, when non-nil, marks the block's repeated rows: rep[y], for
// 0 < y < h, reports that row y holds the same bits as row y−1, so src
// does not hold it (rep[0] is not read: the block's first row is src's
// first). The row pass transforms only the rows src holds and copies each
// repeated row's transform from the row above: equal bits in give equal
// bits out. A nil rep marks no row, so src holds row y at y·stride.
//
// Both passes run on the dot tile: the row pass dots four distinct block
// rows with four basis rows at a time, the column pass four basis rows
// with four tmp columns. Each coefficient is still one sequential dot
// product, started at +0 and accumulated in index order, so the result is
// the one the plain loops produce (see DESIGN.md §12).
//
//hsd:noalloc
func (t *Truncated) Forward(dst, tmp, src []float64, stride int, rep []bool) {
	h, kh, kw := t.h, t.kh, t.kw
	ld := tensor.TileWidth(kw)
	var s [16]float64
	// Row pass: tmp[y][v] = Σ_x src[k][x]·Cw[v][x] for the distinct rows,
	// row y being src's row k, gathered four to a tile. A short last tile
	// repeats its last row, and the padding columns multiply zero basis
	// entries; neither is read into dst.
	var rows [tensor.TileRows]int
	n, k := 0, 0 // rows in the tile; src's row of the tile's first
	for y := 0; y < h; y++ {
		if y > 0 && rep != nil && rep[y] {
			continue
		}
		rows[n] = y
		if n++; n == tensor.TileRows {
			t.rowTile(tmp, src[k*stride:], stride, n, &rows, &s)
			k += n
			n = 0
		}
	}
	if n > 0 {
		for r := n; r < tensor.TileRows; r++ {
			rows[r] = rows[n-1]
		}
		t.rowTile(tmp, src[k*stride:], stride, n, &rows, &s)
	}
	if rep != nil {
		for y := 1; y < h; y++ {
			if rep[y] {
				copy(tmp[y*ld:y*ld+ld], tmp[(y-1)*ld:y*ld])
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

// rowTile runs the row pass over src's first n rows (1 ≤ n ≤ 4), stride
// apart, writing each row's kw transformed columns (padded to
// TileWidth(kw)) into row rows[r] of tmp. A short tile repeats src's row
// n−1, whose tmp row rows[n−1] = rows[r] is then written again with the
// same bits.
//
//hsd:noalloc
func (t *Truncated) rowTile(tmp, src []float64, stride, n int, rows *[tensor.TileRows]int, s *[16]float64) {
	w, ld := t.w, tensor.TileWidth(t.kw)
	r1, r2, r3 := min(1, n-1)*stride, min(2, n-1)*stride, min(3, n-1)*stride
	b0, b1, b2, b3 := src[:w], src[r1:r1+w], src[r2:r2+w], src[r3:r3+w]
	for v := 0; v < ld; v += tensor.TileRows {
		tensor.DotTile(s, t.cwT[v:], ld, b0, b1, b2, b3)
		for r, y := range rows {
			o := tmp[y*ld+v : y*ld+v+4]
			o[0], o[1], o[2], o[3] = s[4*r], s[4*r+1], s[4*r+2], s[4*r+3]
		}
	}
}
