package dct

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/tensor"
)

// TestTruncatedMatchesLoops pins the dot-tile transform to the plain
// sequential loops it replaced, bit for bit, on every tile kernel body the
// host has, on dense rows and on distinct rows packed as raster.Rows keeps
// them. Shapes cover corners that are and are not multiples of the tile's
// 4 lanes. Each block sits below a block of random rows in an image whose
// other pixels are poison values a misplaced read would carry into the
// result, read in place at strides w, w+1 and w+5. Its row y is one of a
// few source rows, chosen by pattern:
//   - all rows distinct;
//   - every row equal;
//   - runs of 1, 2 and 3 rows;
//   - alternating rows, equal to the row two above but never to the one
//     above, so nothing is marked;
//   - rows of +0 and rows that differ from them only by a −0, which are
//     equal under == but not bit for bit, so they are not marked either;
//   - and each of those with the block's first row equal to the last row
//     of the block above, which the image's marks then mark: the block's
//     packed rows then start at the stored row above it, and Forward must
//     still transform its first row, since the block's tmp has no row
//     above it.
//
// The marks are recomputed row by row from the image's bits, and the test
// checks that they mark what each pattern repeats. The row scratch starts
// as NaN, so a marked row the pass fails to copy shows in the result.
func TestTruncatedMatchesLoops(t *testing.T) {
	cases := []struct{ h, w, kh, kw int }{
		{25, 25, 8, 8},
		{12, 16, 3, 5},
		{7, 9, 6, 7},
		{1, 1, 1, 1},
		{25, 25, 7, 7},
		{8, 8, 8, 8},
		{5, 5, 1, 1},
		{4, 13, 4, 13},
	}
	patterns := []struct {
		name string
		src  func(y int) int // source row of block row y
	}{
		{"distinct", func(y int) int { return 5 + y }},
		{"equal", func(int) int { return 0 }},
		{"runs", func(y int) int { return []int{0, 1, 1, 2, 2, 2}[y%6] }},
		{"alternating", func(y int) int { return y % 2 }},
		{"signed zeros", func(y int) int { return 3 + y/2%2 }},
	}
	check := func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, c := range cases {
			// Sources 0–2 and 5 on are random, 3 is +0 and 4 is +0 but
			// for one −0.
			src := make([][]float64, 5+c.h)
			for i := range src {
				src[i] = make([]float64, c.w)
				if i != 3 && i != 4 {
					for x := range src[i] {
						src[i][x] = rng.NormFloat64()
					}
				}
			}
			src[4][c.w/2] = math.Copysign(0, -1)
			tr, err := NewTruncated(c.h, c.w, c.kh, c.kw)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range patterns {
				for _, join := range []bool{false, true} {
					for _, pad := range []int{0, 1, 5} {
						what := fmt.Sprintf("%dx%d k=%dx%d %s join=%v stride %d", c.h, c.w, c.kh, c.kw, p.name, join, c.w+pad)
						checkTruncated(t, what, tr, c.h, c.w, c.kh, c.kw, pad, join, src, p.src, rng)
					}
				}
			}
		}
	}
	for _, name := range tensor.Kernels() {
		tensor.WithKernel(name, func() { t.Run(name, check) })
	}
}

// checkTruncated lays an h×w block whose row y is src[id(y)] below a
// block of random rows (whose last row repeats the block's first when join
// is set) in a poisoned image of row stride w+pad, checks the row marks a
// row-by-row recomputation gives the block, packs the image's distinct
// rows at the same stride into a second poisoned image, and checks
// Forward on the dense block with nil marks and on the packed rows with
// the marks, and forwardTruncated2DInto on a contiguous block (pad 0),
// against the plain loops, by bits.
func checkTruncated(t *testing.T, what string, tr Truncated, h, w, kh, kw, pad int, join bool, src [][]float64, id func(y int) int, rng *rand.Rand) {
	t.Helper()
	stride := w + pad
	img := make([]float64, (2*h+1)*stride)
	packed := make([]float64, (2*h+1)*stride)
	for i := range img {
		img[i], packed[i] = math.Inf(1), math.Inf(1)
	}
	at := func(y int) []float64 { return img[y*stride : y*stride+w] } // image row y
	for y := 0; y < h; y++ {
		for x := range at(y) {
			at(y)[x] = rng.NormFloat64()
		}
		copy(at(h+y), src[id(y)])
	}
	if join {
		copy(at(h-1), at(h))
	}
	marks := markRows(img, stride, 2*h, w)
	rep := marks[h:]
	if rep[0] != join {
		t.Fatalf("%s: first row marked %v", what, rep[0])
	}
	for y := 1; y < h; y++ {
		// Distinct source rows differ in some bit.
		if want := id(y) == id(y-1); rep[y] != want {
			t.Fatalf("%s: row %d marked %v, want %v", what, y, rep[y], want)
		}
	}
	k, first := 0, 0 // stored rows; the stored row image row h resolves to
	for y := 0; y < 2*h; y++ {
		if y == 0 || !marks[y] {
			copy(packed[k*stride:k*stride+w], at(y))
			k++
		}
		if y == h {
			first = k - 1
		}
	}
	block := img[h*stride:]
	want := make([]float64, kh*kw)
	truncatedLoops(want, make([]float64, h*kw), block, stride, h, w, kh, kw)
	for _, in := range []struct {
		rows []float64
		rep  []bool
	}{{block, nil}, {packed[first*stride:], rep}} {
		got := make([]float64, kh*kw)
		tmp := make([]float64, tr.TmpLen())
		for i := range tmp {
			tmp[i] = math.NaN()
		}
		tr.Forward(got, tmp, in.rows, stride, in.rep)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s packed %v: coefficient %d = %v, want %v", what, in.rep != nil, i, got[i], want[i])
			}
		}
	}
	if pad == 0 {
		into := make([]float64, kh*kw)
		tmp := make([]float64, tr.TmpLen())
		if err := forwardTruncated2DInto(into, tmp, block[:h*w], h, w, kh, kw); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(into[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s Into: coefficient %d = %v, want %v", what, i, into[i], want[i])
			}
		}
	}
}

// markRows recomputes row marks row by row: rep[y] reports that row y of
// the h×w block at src (row stride stride) holds row y−1's bits.
func markRows(src []float64, stride, h, w int) []bool {
	rep := make([]bool, h)
	for y := 1; y < h; y++ {
		rep[y] = true
		for x := 0; x < w; x++ {
			if math.Float64bits(src[y*stride+x]) != math.Float64bits(src[(y-1)*stride+x]) {
				rep[y] = false
			}
		}
	}
	return rep
}

func TestForwardTruncated2DIntoErrors(t *testing.T) {
	src := make([]float64, 64)
	// The 3-column corner's row scratch is padded to the tile's 4 columns.
	good := func() ([]float64, []float64) { return make([]float64, 9), make([]float64, 8*4) }
	dst, tmp := good()
	if err := forwardTruncated2DInto(dst, tmp, src[:63], 8, 8, 3, 3); err == nil {
		t.Error("expected error for short src")
	}
	if err := forwardTruncated2DInto(dst, tmp, src, 8, 8, 0, 3); err == nil {
		t.Error("expected error for kh=0")
	}
	if err := forwardTruncated2DInto(dst, tmp, src, 8, 8, 9, 3); err == nil {
		t.Error("expected error for kh>h")
	}
	if err := forwardTruncated2DInto(dst[:8], tmp, src, 8, 8, 3, 3); err == nil {
		t.Error("expected error for short dst")
	}
	if err := forwardTruncated2DInto(dst, tmp[:31], src, 8, 8, 3, 3); err == nil {
		t.Error("expected error for short tmp")
	}
	if err := forwardTruncated2DInto(dst, tmp, src, 8, 8, 3, 3); err != nil {
		t.Errorf("valid call: %v", err)
	}
}
