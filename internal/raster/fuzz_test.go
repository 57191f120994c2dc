package raster

import (
	"encoding/binary"
	"math"
	"testing"

	"hotspot/internal/geom"
)

// FuzzRasterizeWindow draws arbitrary rectangle lists — off the pixel
// grid, overlapping, degenerate or inverted, partly or wholly outside the
// frame — into arbitrary windows of a small frame. The inputs decode as:
// resNM = 1 + res mod 8; a frame at (fx, fy) of 1 + fw by 1 + fh nm; the
// window's four bytes x0, y0, w, h, each reduced to one pixel either side
// of the frame's grid, so some windows fall outside it; and each 8 bytes
// of rects one rectangle, four little-endian int16 corners relative to
// the frame's origin. Nothing may panic, and:
//   - a window outside the grid fails, and only such a window;
//   - a window equals the same crop of Rasterize, bit for bit, drawn into
//     a reused image that holds the whole frame's pixels and marks;
//   - every pixel of both is in [0, 1];
//   - both come back unmarked, the reused image's old marks dropped, and
//     MarkRows then marks each row as a row-by-row bitwise recomputation
//     does.
//
// The seed corpus in testdata/fuzz/FuzzRasterizeWindow holds wires on the
// pixel grid, overlapping off-grid rectangles at 3 nm/px, degenerate and
// inverted ones, rectangles outside the frame, a window past the grid's
// edge and an empty window.
func FuzzRasterizeWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, res uint8, fx, fy int16, fw, fh uint8, window uint32, rects []byte) {
		resNM := 1 + int(res%8)
		x, y := int(fx), int(fy)
		frame := geom.R(x, y, x+1+int(fw), y+1+int(fh))
		clip := geom.Clip{Frame: frame}
		for i := 0; i+8 <= len(rects) && i < 8*64; i += 8 {
			c := func(j int) int { return int(int16(binary.LittleEndian.Uint16(rects[i+2*j:]))) }
			clip.Rects = append(clip.Rects, geom.Rect{X0: x + c(0), Y0: y + c(1), X1: x + c(2), Y1: y + c(3)})
		}
		full, err := Rasterize(clip, resNM)
		if err != nil {
			t.Fatal(err)
		}
		gw, gh := full.W, full.H
		w8 := func(k int) int { return int(window >> (8 * k) & 0xff) }
		x0, y0 := w8(0)%(gw+2)-1, w8(1)%(gh+2)-1
		w, h := w8(2)%(gw+2), w8(3)%(gh+2)
		reuse := full.Clone()
		reuse.MarkRows()
		win, err := RasterizeWindow(reuse, clip, resNM, x0, y0, w, h)
		if outside := x0 < 0 || y0 < 0 || x0+w > gw || y0+h > gh; outside != (err != nil) {
			t.Fatalf("window (%d,%d) %dx%d of a %dx%d grid: error %v", x0, y0, w, h, gw, gh, err)
		}
		checkPixels(t, "Rasterize", full)
		if err != nil {
			return
		}
		want, err := full.SubImage(x0, y0, x0+w, y0+h)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, 0, "RasterizeWindow", win, want)
		checkPixels(t, "RasterizeWindow", win)
	})
}

// checkPixels fails unless every pixel of im is in [0, 1], im is
// unmarked, and the row marks MarkRows then sets are what comparing each
// row's bits with the row above gives.
func checkPixels(t *testing.T, name string, im *Image) {
	t.Helper()
	for i, v := range im.Pix {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("%s pixel %d is %v, outside [0, 1]", name, i, v)
		}
	}
	if im.Repeats() != nil {
		t.Fatalf("%s returned a marked image", name)
	}
	im.MarkRows()
	rep := im.Repeats()
	if len(rep) != im.H {
		t.Fatalf("%s: %d row marks for %d rows", name, len(rep), im.H)
	}
	for y := range rep {
		want := y > 0
		for x := 0; x < im.W && want; x++ {
			want = math.Float64bits(im.At(x, y)) == math.Float64bits(im.At(x, y-1))
		}
		if rep[y] != want {
			t.Fatalf("%s row %d marked %v, but its bits say %v", name, y, rep[y], want)
		}
	}
}
