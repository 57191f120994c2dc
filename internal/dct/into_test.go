package dct

import (
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/tensor"
)

// TestTruncatedMatchesLoops pins the dot-tile transform to the plain
// sequential loops it replaced, bit for bit, on every tile kernel body the
// host has.
// Shapes cover corners that are and are not multiples of the tile's 4
// lanes, and blocks read in place from a wider image (stride > w) whose
// other pixels are poison values a misplaced read would carry into the
// result.
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
	check := func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, c := range cases {
			for _, pad := range []int{0, 1, 5} {
				stride := c.w + pad
				img := make([]float64, (c.h+2)*stride)
				for i := range img {
					img[i] = math.Inf(1)
				}
				off := stride + pad/2 // block starts one row down, pad/2 columns in
				for y := 0; y < c.h; y++ {
					for x := 0; x < c.w; x++ {
						img[off+y*stride+x] = rng.NormFloat64()
					}
				}
				want := make([]float64, c.kh*c.kw)
				truncatedLoops(want, make([]float64, c.h*c.kw), img[off:], stride, c.h, c.w, c.kh, c.kw)
				tr, err := NewTruncated(c.h, c.w, c.kh, c.kw)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]float64, c.kh*c.kw)
				tr.Forward(got, make([]float64, tr.TmpLen()), img[off:], stride)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d k=%dx%d stride %d: coefficient %d = %v, want %v",
							c.h, c.w, c.kh, c.kw, stride, i, got[i], want[i])
					}
				}
				if pad == 0 {
					into := make([]float64, c.kh*c.kw)
					tmp := make([]float64, c.h*tensor.TileWidth(c.kw))
					if err := forwardTruncated2DInto(into, tmp, img[off:off+c.h*c.w], c.h, c.w, c.kh, c.kw); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(into[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%dx%d k=%dx%d Into: coefficient %d = %v, want %v", c.h, c.w, c.kh, c.kw, i, into[i], want[i])
						}
					}
				}
			}
		}
	}
	for _, name := range tensor.Kernels() {
		tensor.WithKernel(name, func() { t.Run(name, check) })
	}
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
