// Package raster converts layout geometry (geom.Clip) into pixel grids.
//
// The rasterizer is area-accurate: a pixel's value is the fraction of its
// area covered by drawn geometry, so any integer resolution (nanometres per
// pixel) yields an unbiased grayscale rendering. At 1 nm/px the output is
// the exact binary mask the paper operates on; coarser grids are used to
// trade accuracy for speed in tests and large sweeps.
package raster

import (
	"fmt"
	"io"
	"math"

	"hotspot/internal/geom"
)

// Image is a dense row-major 2-D grid of float64 pixel values in [0, 1].
type Image struct {
	W, H int
	Pix  []float64
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

// Set stores v at (x, y).
func (im *Image) Set(x, y int, v float64) { im.Pix[y*im.W+x] = v }

// Clone returns a deep copy of the pixels.
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

// Rasterize renders a clip at the given resolution (nanometres per pixel).
// The output has ceil(frame/res) pixels per side; each pixel holds its
// covered-area fraction. Overlapping rectangles saturate at 1.
func Rasterize(c geom.Clip, resNM int) (*Image, error) {
	if resNM <= 0 {
		return nil, fmt.Errorf("raster: resolution must be positive, got %d", resNM)
	}
	w := (c.Frame.W() + resNM - 1) / resNM
	h := (c.Frame.H() + resNM - 1) / resNM
	return RasterizeWindow(c, resNM, 0, 0, w, h)
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
