package raster

import (
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/geom"
)

// rasterizeLoop is Rasterize's loop before it moved onto RasterizeWindow:
// every rectangle drawn over the whole frame, no clamping and no
// covered-pixel shortcut. It indexes before the image for a rectangle that
// reaches a pixel past the frame's left or bottom edge, so callers clamp
// those two edges to the frame first, which changes no grid pixel.
func rasterizeLoop(c geom.Clip, resNM int) *Image {
	n := c.Normalize()
	w := (n.Frame.W() + resNM - 1) / resNM
	h := (n.Frame.H() + resNM - 1) / resNM
	im := NewImage(w, h)
	area := float64(resNM) * float64(resNM)
	for _, r := range n.Rects {
		px0 := r.X0 / resNM
		px1 := (r.X1 + resNM - 1) / resNM
		py0 := r.Y0 / resNM
		py1 := (r.Y1 + resNM - 1) / resNM
		for py := py0; py < py1 && py < h; py++ {
			cellY0, cellY1 := py*resNM, (py+1)*resNM
			ovY := min(r.Y1, cellY1) - max(r.Y0, cellY0)
			if ovY <= 0 {
				continue
			}
			row := im.Pix[py*w:]
			for px := px0; px < px1 && px < w; px++ {
				cellX0, cellX1 := px*resNM, (px+1)*resNM
				ovX := min(r.X1, cellX1) - max(r.X0, cellX0)
				if ovX <= 0 {
					continue
				}
				v := row[px] + float64(ovX)*float64(ovY)/area
				if v > 1 {
					v = 1
				}
				row[px] = v
			}
		}
	}
	return im
}

// TestRasterizeWindowMatchesLoop pins RasterizeWindow, and Rasterize on
// top of it, to the plain frame loop plus SubImage, bit for bit: random
// frames off the origin whose sides need not be multiples of the
// resolution, random windows, and rectangles that straddle the window's
// and the frame's edges, overlap, or fall outside both. Each window is
// drawn into a reused image that holds the previous window's pixels.
func TestRasterizeWindowMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reuse *Image
	for trial := 0; trial < 300; trial++ {
		res := 1 + rng.Intn(6)
		fx, fy := rng.Intn(200)-100, rng.Intn(200)-100
		fw, fh := 1+rng.Intn(90), 1+rng.Intn(90)
		frame := geom.R(fx, fy, fx+fw, fy+fh)
		rects := make([]geom.Rect, rng.Intn(24))
		for i := range rects {
			x0, y0 := fx-20+rng.Intn(fw+40), fy-20+rng.Intn(fh+40)
			rects[i] = geom.R(x0, y0, x0+rng.Intn(fw+20), y0+rng.Intn(fh+20))
		}
		clip := geom.Clip{Frame: frame, Rects: rects}
		ref := geom.Clip{Frame: frame}
		for _, r := range rects {
			ref.Rects = append(ref.Rects, geom.R(max(r.X0, fx), max(r.Y0, fy), r.X1, r.Y1))
		}
		full := rasterizeLoop(ref, res)
		got, err := Rasterize(clip, res)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, trial, "Rasterize", got, full)

		w, h := rng.Intn(full.W+1), rng.Intn(full.H+1)
		x0, y0 := rng.Intn(full.W-w+1), rng.Intn(full.H-h+1)
		want, err := full.SubImage(x0, y0, x0+w, y0+h)
		if err != nil {
			t.Fatal(err)
		}
		win, err := RasterizeWindow(reuse, clip, res, x0, y0, w, h)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, trial, "RasterizeWindow", win, want)
		if reuse == nil || cap(win.Pix) > cap(reuse.Pix) {
			reuse = win
		}
	}
}

func sameBits(t *testing.T, trial int, name string, got, want *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("trial %d: %s is %dx%d, want %dx%d", trial, name, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("trial %d: %s pixel %d = %v, want %v", trial, name, i, got.Pix[i], want.Pix[i])
		}
	}
}

func TestRasterizeWindowErrors(t *testing.T) {
	c := geom.NewClip(geom.R(10, 10, 50, 50), []geom.Rect{geom.R(10, 10, 30, 30)})
	// The frame's grid at 4 nm/px is 10×10 pixels.
	for _, w := range [][4]int{{-1, 0, 4, 4}, {0, -1, 4, 4}, {7, 0, 4, 4}, {0, 7, 4, 4}, {0, 0, 11, 1}} {
		if _, err := RasterizeWindow(nil, c, 4, w[0], w[1], w[2], w[3]); err == nil {
			t.Errorf("window %v: expected error", w)
		}
	}
	if _, err := RasterizeWindow(nil, c, 0, 0, 0, 1, 1); err == nil {
		t.Error("expected error for zero resolution")
	}
	im, err := RasterizeWindow(nil, c, 4, 6, 6, 4, 4)
	if err != nil || im.W != 4 || im.H != 4 {
		t.Fatalf("corner window: %v, %v", im, err)
	}
}

func TestReuse(t *testing.T) {
	im := NewImage(4, 4)
	im.Pix[15] = 1
	r := Reuse(im, 3, 5)
	if r != im || r.W != 3 || r.H != 5 || len(r.Pix) != 15 || r.Sum() != 0 {
		t.Fatalf("Reuse into room: %+v", r)
	}
	if g := Reuse(im, 5, 5); g == im || len(g.Pix) != 25 {
		t.Fatal("Reuse without room must allocate")
	}
	if g := Reuse(nil, 2, 2); g == nil || len(g.Pix) != 4 {
		t.Fatal("Reuse(nil) must allocate")
	}
}
