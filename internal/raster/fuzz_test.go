package raster

import (
	"encoding/binary"
	"testing"

	"hotspot/internal/geom"
)

// FuzzRasterizeWindow draws arbitrary rectangle lists — off the pixel
// grid, overlapping, degenerate or inverted, partly or wholly outside the
// frame — into arbitrary windows of a small frame, as a dense image and as
// distinct rows. The inputs decode as: resNM = 1 + res mod 8; a frame at
// (fx, fy) of 1 + fw by 1 + fh nm; the window's four bytes x0, y0, w, h,
// each reduced to one pixel either side of the frame's grid, so some
// windows fall outside it; and each 8 bytes of rects one rectangle, four
// little-endian int16 corners relative to the frame's origin. Nothing may
// panic, and:
//   - a window outside the grid fails, and only such a window, leaving
//     the distinct-row form as it was;
//   - the dense window and the expanded distinct-row form, drawn into a
//     form that holds the whole frame's rows, both equal rasterizeLoop's
//     frame cropped by SubImage, bit for bit: an oracle that shares no
//     drawing code with them;
//   - every pixel is in [0, 1];
//   - the form stores exactly the rows whose bits differ from the row
//     above, and its marks equal a row-by-row bitwise recomputation.
//
// The seed corpus in testdata/fuzz/FuzzRasterizeWindow holds wires on the
// pixel grid, overlapping off-grid rectangles at 3 nm/px, degenerate and
// inverted ones, rectangles outside the frame, a window past the grid's
// edge, an empty window, and three band edges: two rectangles meeting at
// one y, so that the rows either side of a band boundary are bitwise
// equal; slivers inside one pixel row; and a window whose first row falls
// inside a band.
func FuzzRasterizeWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, res uint8, fx, fy int16, fw, fh uint8, window uint32, rects []byte) {
		resNM := 1 + int(res%8)
		x, y := int(fx), int(fy)
		frame := geom.R(x, y, x+1+int(fw), y+1+int(fh))
		clip := geom.Clip{Frame: frame}
		ref := geom.Clip{Frame: frame}
		for i := 0; i+8 <= len(rects) && i < 8*64; i += 8 {
			c := func(j int) int { return int(int16(binary.LittleEndian.Uint16(rects[i+2*j:]))) }
			r := geom.Rect{X0: x + c(0), Y0: y + c(1), X1: x + c(2), Y1: y + c(3)}
			clip.Rects = append(clip.Rects, r)
			ref.Rects = append(ref.Rects, geom.Rect{X0: max(r.X0, x), Y0: max(r.Y0, y), X1: r.X1, Y1: r.Y1})
		}
		full := rasterizeLoop(ref, resNM)
		gw, gh := full.W, full.H
		w8 := func(k int) int { return int(window >> (8 * k) & 0xff) }
		x0, y0 := w8(0)%(gw+2)-1, w8(1)%(gh+2)-1
		w, h := w8(2)%(gw+2), w8(3)%(gh+2)
		var rows Rows
		if err := rows.RasterizeWindow(clip, resNM, 0, 0, gw, gh); err != nil {
			t.Fatal(err)
		}
		checkRows(t, 0, "the frame's rows", &rows, full)
		win, err := RasterizeWindow(clip, resNM, x0, y0, w, h)
		rerr := rows.RasterizeWindow(clip, resNM, x0, y0, w, h)
		if outside := x0 < 0 || y0 < 0 || x0+w > gw || y0+h > gh; outside != (err != nil) || outside != (rerr != nil) {
			t.Fatalf("window (%d,%d) %dx%d of a %dx%d grid: errors %v, %v", x0, y0, w, h, gw, gh, err, rerr)
		}
		if err != nil {
			checkRows(t, 0, "a form after a failed window", &rows, full)
			return
		}
		want, err := full.SubImage(x0, y0, x0+w, y0+h)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Pix {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("pixel %d is %v, outside [0, 1]", i, v)
			}
		}
		sameBits(t, 0, "RasterizeWindow", win, want)
		checkRows(t, 0, "Rows.RasterizeWindow", &rows, want)
	})
}
