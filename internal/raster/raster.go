// Package raster converts layout geometry (geom.Clip) into pixel grids.
//
// The rasterizer is area-accurate: a pixel's value is the fraction of its
// area covered by drawn geometry, so any integer resolution (nanometres per
// pixel) yields an unbiased grayscale rendering. At 1 nm/px the output is
// the exact binary mask the paper operates on; coarser grids are used to
// trade accuracy for speed in tests and large sweeps.
package raster

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"unsafe"

	"hotspot/internal/geom"
)

// Image is a dense row-major 2-D grid of float64 pixel values in [0, 1].
//
// An image may also carry row marks: for each row, whether it repeats the
// row above bit for bit. MarkRows marks an image; a consumer that reads
// the marks calls it once the pixels are written. The marks describe the
// pixels they were computed from: Set, Reuse and every function returning
// an image (RasterizeWindow included) leave it unmarked, and code that
// writes Pix directly must call MarkRows again before the marks are read.
type Image struct {
	W, H int
	Pix  []float64
	rep  []bool // rep[y]: row y repeats row y−1; empty when unmarked
}

// NewImage returns a zero-filled W×H image.
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("raster: negative image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y); y indexes rows.
func (im *Image) At(x, y int) float64 { return im.Pix[y*im.W+x] }

// Set stores v at (x, y) and drops the image's row marks.
func (im *Image) Set(x, y int, v float64) {
	im.Pix[y*im.W+x] = v
	im.rep = im.rep[:0]
}

// MarkRows records which rows repeat the row above bit for bit, reusing
// the storage of earlier marks.
func (im *Image) MarkRows() {
	if cap(im.rep) < im.H {
		im.rep = make([]bool, im.H)
	}
	im.rep = im.rep[:im.H]
	MarkRows(im.rep, im.Pix, im.W)
}

// Repeats returns the image's row marks, Repeats()[y] reporting that row
// y holds the same bits as row y−1 (never for row 0), or nil when the
// image is unmarked. The slice is the image's own; callers only read it.
func (im *Image) Repeats() []bool {
	if len(im.rep) == 0 {
		return nil
	}
	return im.rep
}

// MarkRows sets rep[y], for each of the len(rep) rows of width w that pix
// holds row-major, to whether row y holds the same bits as row y−1;
// rep[0] is false. Bit equality tells −0 from +0 and compares NaNs by
// payload, so equal marks mean equal inputs to any arithmetic on the rows.
//
//hsd:noalloc
func MarkRows(rep []bool, pix []float64, w int) {
	for y := range rep {
		rep[y] = y > 0 && equalBits(pix[y*w:y*w+w], pix[(y-1)*w:y*w])
	}
}

// equalBits reports whether two equal-length rows hold the same bits. It
// compares their bytes with bytes.Equal, the runtime's vectorized memory
// comparison: marking a 300×300 image takes about 17 µs that way against
// 80 µs for a loop over Float64bits (2-vCPU Xeon), which is as long as
// the serve cache's hash of the same pixels took.
func equalBits(a, b []float64) bool {
	if len(a) == 0 {
		return true
	}
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 8*len(a)),
		unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), 8*len(b)))
}

// Clone returns an unmarked deep copy of the pixels.
func (im *Image) Clone() *Image {
	c := NewImage(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// Sum returns the sum of all pixel values.
func (im *Image) Sum() float64 {
	s := 0.0
	for _, v := range im.Pix {
		s += v
	}
	return s
}

// Threshold returns a binary image: 1 where im >= th, else 0.
func (im *Image) Threshold(th float64) *Image {
	out := NewImage(im.W, im.H)
	for i, v := range im.Pix {
		if v >= th {
			out.Pix[i] = 1
		}
	}
	return out
}

// SubImage copies the window [x0,x1)×[y0,y1) into a new image. The window
// must lie within the image.
func (im *Image) SubImage(x0, y0, x1, y1 int) (*Image, error) {
	if err := checkWindow(x0, y0, x1, y1, im.W, im.H); err != nil {
		return nil, err
	}
	out := NewImage(x1-x0, y1-y0)
	for y := y0; y < y1; y++ {
		copy(out.Pix[(y-y0)*out.W:(y-y0+1)*out.W], im.Pix[y*im.W+x0:y*im.W+x1])
	}
	return out, nil
}

// checkWindow rejects a window [x0,x1)×[y0,y1) that does not lie within a
// w×h pixel grid.
func checkWindow(x0, y0, x1, y1, w, h int) error {
	if x0 < 0 || y0 < 0 || x1 > w || y1 > h || x0 > x1 || y0 > y1 {
		return fmt.Errorf("raster: subimage window (%d,%d)-(%d,%d) outside %dx%d", x0, y0, x1, y1, w, h)
	}
	return nil
}

// Reuse returns a zero-filled, unmarked w×h image, drawn in dst's storage
// when dst is non-nil and has room for w·h pixels and freshly allocated
// otherwise.
func Reuse(dst *Image, w, h int) *Image {
	if dst == nil || cap(dst.Pix) < w*h {
		return NewImage(w, h)
	}
	dst.W, dst.H, dst.Pix, dst.rep = w, h, dst.Pix[:w*h], dst.rep[:0]
	clear(dst.Pix)
	return dst
}

// Rasterize renders a clip at the given resolution (nanometres per pixel).
// The output has ceil(frame/res) pixels per side; each pixel holds its
// covered-area fraction. Overlapping rectangles saturate at 1.
func Rasterize(c geom.Clip, resNM int) (*Image, error) {
	if resNM <= 0 {
		return nil, fmt.Errorf("raster: resolution must be positive, got %d", resNM)
	}
	w := (c.Frame.W() + resNM - 1) / resNM
	h := (c.Frame.H() + resNM - 1) / resNM
	return RasterizeWindow(nil, c, resNM, 0, 0, w, h)
}

// fullRow is a run of fully covered pixels for RasterizeWindow to copy.
var fullRow = func() (r [256]float64) {
	for i := range r {
		r[i] = 1
	}
	return r
}()

// cover adds the part of the rectangle [rx0, rx1) × (ovY rows) that falls
// in each pixel of seg, whose first pixel is column px0, saturating at 1:
// Rasterize's per-pixel arithmetic.
func cover(seg []float64, px0, rx0, rx1, resNM int, ovY, area float64) {
	for i, p := range seg {
		cellX0 := (px0 + i) * resNM
		ovX := min(rx1, cellX0+resNM) - max(rx0, cellX0)
		v := p + float64(ovX)*ovY/area
		if v > 1 {
			v = 1
		}
		seg[i] = v
	}
}

// RasterizeWindow renders pixels [x0,x0+w)×[y0,y0+h) of Rasterize's grid
// for the clip, drawing into dst's storage as Reuse does, and returns the
// w×h image. Each pixel accumulates the same rectangles in the same order
// with the same arithmetic as in Rasterize, so the result equals
// Rasterize followed by SubImage bit for bit, and the rest of the frame is
// never drawn. A window outside the frame's grid fails with SubImage's
// error, before anything is allocated.
//
// Each rectangle is first clamped to the window, which leaves every
// window pixel's overlap unchanged and keeps a rectangle past the frame's
// edges from indexing outside the window. A pixel a rectangle covers
// whole is stored as exactly 1: its ovX·ovY/area is exactly 1.0 and
// pixels are never negative, so the saturating sum is 1 whatever the
// pixel held.
func RasterizeWindow(dst *Image, c geom.Clip, resNM, x0, y0, w, h int) (*Image, error) {
	if resNM <= 0 {
		return nil, fmt.Errorf("raster: resolution must be positive, got %d", resNM)
	}
	gw := (c.Frame.W() + resNM - 1) / resNM
	gh := (c.Frame.H() + resNM - 1) / resNM
	if err := checkWindow(x0, y0, x0+w, y0+h, gw, gh); err != nil {
		return nil, err
	}
	im := Reuse(dst, w, h)
	wx0, wx1 := x0*resNM, (x0+w)*resNM // the window in frame-relative nm
	wy0, wy1 := y0*resNM, (y0+h)*resNM
	area := float64(resNM) * float64(resNM)
	for _, r := range c.Rects {
		rx0, rx1 := max(r.X0-c.Frame.X0, wx0), min(r.X1-c.Frame.X0, wx1)
		ry0, ry1 := max(r.Y0-c.Frame.Y0, wy0), min(r.Y1-c.Frame.Y0, wy1)
		if rx1 <= rx0 || ry1 <= ry0 {
			continue
		}
		px0, px1 := rx0/resNM, (rx1+resNM-1)/resNM
		py0, py1 := ry0/resNM, (ry1+resNM-1)/resNM
		// Columns [ix0, ix1) lie wholly inside the rectangle.
		ix0, ix1 := (rx0+resNM-1)/resNM, rx1/resNM
		for py := py0; py < py1; py++ {
			cellY0 := py * resNM
			ovY := min(ry1, cellY0+resNM) - max(ry0, cellY0)
			// row[i] is pixel x0+i of the window's row py.
			row := im.Pix[(py-y0)*w : (py-y0+1)*w]
			if ovY < resNM || ix0 >= ix1 {
				cover(row[px0-x0:px1-x0], px0, rx0, rx1, resNM, float64(ovY), area)
				continue
			}
			for run := row[ix0-x0 : ix1-x0]; len(run) > 0; {
				run = run[copy(run, fullRow[:]):]
			}
			cover(row[px0-x0:ix0-x0], px0, rx0, rx1, resNM, float64(ovY), area)
			cover(row[ix1-x0:px1-x0], ix1, rx0, rx1, resNM, float64(ovY), area)
		}
	}
	return im, nil
}

// ASCII renders the image as a small text picture using a 4-level ramp; a
// debugging aid for examples and golden tests.
func (im *Image) ASCII() string {
	ramp := []byte(" .:#")
	out := make([]byte, 0, (im.W+1)*im.H)
	for y := im.H - 1; y >= 0; y-- { // print with y increasing upwards
		for x := 0; x < im.W; x++ {
			v := im.At(x, y)
			idx := int(math.Floor(v * float64(len(ramp))))
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			if idx < 0 {
				idx = 0
			}
			out = append(out, ramp[idx])
		}
		out = append(out, '\n')
	}
	return string(out)
}

// Downsample returns the image reduced by an integer factor using box
// averaging. The image dimensions must be divisible by the factor.
func (im *Image) Downsample(factor int) (*Image, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("raster: downsample factor must be positive, got %d", factor)
	}
	if im.W%factor != 0 || im.H%factor != 0 {
		return nil, fmt.Errorf("raster: image %dx%d not divisible by factor %d", im.W, im.H, factor)
	}
	w, h := im.W/factor, im.H/factor
	out := NewImage(w, h)
	inv := 1.0 / float64(factor*factor)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := 0.0
			for dy := 0; dy < factor; dy++ {
				row := im.Pix[(y*factor+dy)*im.W:]
				for dx := 0; dx < factor; dx++ {
					s += row[x*factor+dx]
				}
			}
			out.Pix[y*w+x] = s * inv
		}
	}
	return out, nil
}

// WritePGM writes the image as a binary 8-bit PGM (portable graymap),
// clamping pixel values to [0, 1]. Rows are written top-down per PGM
// convention (our y axis points up, so the image is flipped on output).
// PGM is the simplest interchange format every image tool can open, which
// makes masks and aerial images inspectable without any dependencies.
func (im *Image) WritePGM(w io.Writer) error {
	if im.W == 0 || im.H == 0 {
		return fmt.Errorf("raster: cannot encode empty %dx%d image", im.W, im.H)
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	row := make([]byte, im.W)
	for y := im.H - 1; y >= 0; y-- {
		for x := 0; x < im.W; x++ {
			v := im.At(x, y)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			row[x] = byte(float64(v*255) + 0.5)
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}
