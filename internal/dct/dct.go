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
// padding columns. One vector load then reads the frequencies at one x,
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

// rowOffCache memoizes the dot tile's row tables beside the basis tables.
var rowOffCache sync.Map // [2]int{n, ld} -> []int

// rowOffsets returns the row table y·ld for y < n: row y of a row-major
// operand of stride ld, which is how the row pass reads basisT's rows and
// the column pass reads a dense block's tmp rows.
func rowOffsets(n, ld int) []int {
	key := [2]int{n, ld}
	if v, ok := rowOffCache.Load(key); ok { //hsd:allow hotlint one atomic read of an immutable memo table; contention-free after first use
		return v.([]int)
	}
	off := make([]int, n)
	for y := range off {
		off[y] = y * ld
	}
	rowOffCache.Store(key, off) //hsd:allow hotlint first-use table build; duplicate stores race benignly with identical values
	return off
}

// Truncated computes the top-left kh×kw corner (the lowest frequencies)
// of the 2-D DCT of h×w blocks. Because zig-zag truncation keeps only
// low-frequency coefficients, this is all feature extraction needs, and it
// cuts the per-block cost from O(h·w·(h+w)) to O(h·w·kw + h·kh·kw). The
// shape is validated and the basis and row tables are resolved once, at
// NewTruncated, so a caller transforming every block of a clip or a die
// pays neither per block.
type Truncated struct {
	h, w, kh, kw int
	ch, cwT      []float64
	off          []int // y·TileWidth(kw) for y < max(h, w)
}

// NewTruncated validates an h×w block truncated to its kh×kw corner.
func NewTruncated(h, w, kh, kw int) (Truncated, error) {
	if kh <= 0 || kw <= 0 || kh > h || kw > w {
		return Truncated{}, fmt.Errorf("dct: truncation %dx%d invalid for block %dx%d", kh, kw, h, w)
	}
	return Truncated{h: h, w: w, kh: kh, kw: kw, ch: Basis(h), cwT: basisT(w, kw),
		off: rowOffsets(max(h, w), tensor.TileWidth(kw))}, nil
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
// first). rows is then scratch of h ints, which Forward fills with the
// block's row table. A nil rep marks no row, so src holds row y at
// y·stride, and rows is not read (nil will do).
//
// Both passes run on the dot tile. The row pass transforms only the rows
// src holds, four to a tile, eight frequencies wide: the k-th into tmp's
// row k. The column pass dots four basis rows with tmp's columns, reading
// tmp through the row table, where a repeated row points at the stored
// row above it: equal bits in give equal bits out, so no row is copied.
// Each coefficient is still one sequential dot product, started at +0 and
// accumulated in index order, so the result is the one the plain loops
// produce (see DESIGN.md §12).
//
//hsd:noalloc
func (t *Truncated) Forward(dst, tmp []float64, rows []int, src []float64, stride int, rep []bool) {
	h, w, kh, kw := t.h, t.w, t.kh, t.kw
	ld := tensor.TileWidth(kw)
	col, d := t.off[:h], h // the column pass's row table; the rows src holds
	if rep != nil {
		col, d = rows[:h], 0
		for y := range col {
			if y == 0 || !rep[y] {
				d++
			}
			col[y] = (d - 1) * ld
		}
	}
	// Row pass: tmp[k][v] = Σ_x src[k][x]·Cw[v][x] for the rows src holds.
	// A short last tile stores only its live rows; the padding columns
	// multiply zero basis entries and are never read into dst.
	for k := 0; k < d; k += tensor.TileRows {
		n := min(tensor.TileRows, d-k)
		r0, r1 := k*stride, (k+min(1, n-1))*stride
		r2, r3 := (k+min(2, n-1))*stride, (k+min(3, n-1))*stride
		tensor.DotTile(tmp[k*ld:], ld, n, ld, t.cwT, t.off[:w],
			src[r0:r0+w], src[r1:r1+w], src[r2:r2+w], src[r3:r3+w])
	}
	// Column pass: dst[u][v] = Σ_y Ch[u][y]·tmp[col(y)][v].
	for u := 0; u < kh; u += tensor.TileRows {
		n := min(tensor.TileRows, kh-u)
		r1, r2, r3 := u+min(1, n-1), u+min(2, n-1), u+min(3, n-1)
		tensor.DotTile(dst[u*kw:], kw, n, kw, tmp, col,
			t.ch[u*h:u*h+h], t.ch[r1*h:r1*h+h], t.ch[r2*h:r2*h+h], t.ch[r3*h:r3*h+h])
	}
}
