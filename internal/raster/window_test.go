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

// TestRasterizeWindowMatchesLoop pins RasterizeWindow, Rasterize on top
// of it and the distinct-row form to the plain frame loop plus SubImage,
// bit for bit: random frames off the origin whose sides need not be
// multiples of the resolution, random windows, and rectangles that
// straddle the window's and the frame's edges, overlap, or fall outside
// both. Each window's distinct rows are drawn into a form that holds the
// previous window's rows.
func TestRasterizeWindowMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rows Rows
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
		win, err := RasterizeWindow(clip, res, x0, y0, w, h)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, trial, "RasterizeWindow", win, want)
		if err := rows.RasterizeWindow(clip, res, x0, y0, w, h); err != nil {
			t.Fatal(err)
		}
		checkRows(t, trial, "Rows.RasterizeWindow", &rows, want)
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

// expand returns the dense image a distinct-row form stands for.
func expand(r *Rows) *Image {
	im := NewImage(r.W, r.H)
	for y := 0; y < r.H; y++ {
		k := r.Stored(y)
		copy(im.Pix[y*r.W:y*r.W+r.W], r.Pix[k*r.W:k*r.W+r.W])
	}
	return im
}

// checkRows fails unless r is want's distinct-row form: its marks equal a
// row-by-row bitwise recomputation over want, it stores exactly want's
// unmarked rows, in order, and it expands to want bit for bit.
func checkRows(t *testing.T, trial int, name string, r *Rows, want *Image) {
	t.Helper()
	if r.W != want.W || r.H != want.H || len(r.Rep) != want.H {
		t.Fatalf("trial %d: %s is %dx%d with %d marks, want %dx%d", trial, name, r.W, r.H, len(r.Rep), want.W, want.H)
	}
	w, k := want.W, 0
	for y := 0; y < want.H; y++ {
		rep := y > 0
		for x := 0; x < w && rep; x++ {
			rep = math.Float64bits(want.At(x, y)) == math.Float64bits(want.At(x, y-1))
		}
		if r.Rep[y] != rep {
			t.Fatalf("trial %d: %s row %d marked %v, but its bits say %v", trial, name, y, r.Rep[y], rep)
		}
		if rep {
			continue
		}
		if len(r.Pix) < (k+1)*w {
			t.Fatalf("trial %d: %s stores %d pixels, short of row %d", trial, name, len(r.Pix), y)
		}
		for x := 0; x < w; x++ {
			if math.Float64bits(r.Pix[k*w+x]) != math.Float64bits(want.At(x, y)) {
				t.Fatalf("trial %d: %s stored row %d (row %d) pixel %d = %v, want %v", trial, name, k, y, x, r.Pix[k*w+x], want.At(x, y))
			}
		}
		k++
	}
	if len(r.Pix) != k*w {
		t.Fatalf("trial %d: %s stores %d pixels for %d distinct %d-px rows", trial, name, len(r.Pix), k, w)
	}
	sameBits(t, trial, name+" expanded", expand(r), want)
}

func TestRasterizeWindowErrors(t *testing.T) {
	c := geom.NewClip(geom.R(10, 10, 50, 50), []geom.Rect{geom.R(10, 10, 30, 30)})
	var rows Rows
	// The frame's grid at 4 nm/px is 10×10 pixels.
	for _, w := range [][4]int{{-1, 0, 4, 4}, {0, -1, 4, 4}, {7, 0, 4, 4}, {0, 7, 4, 4}, {0, 0, 11, 1}} {
		if _, err := RasterizeWindow(c, 4, w[0], w[1], w[2], w[3]); err == nil {
			t.Errorf("window %v: expected error", w)
		}
		if err := rows.RasterizeWindow(c, 4, w[0], w[1], w[2], w[3]); err == nil {
			t.Errorf("window %v: expected error from the distinct-row form", w)
		}
	}
	if _, err := RasterizeWindow(c, 0, 0, 0, 1, 1); err == nil {
		t.Error("expected error for zero resolution")
	}
	if err := rows.RasterizeWindow(c, 0, 0, 0, 1, 1); err == nil {
		t.Error("expected error for zero resolution from the distinct-row form")
	}
	im, err := RasterizeWindow(c, 4, 6, 6, 4, 4)
	if err != nil || im.W != 4 || im.H != 4 {
		t.Fatalf("corner window: %v, %v", im, err)
	}
}

// TestReuse: a distinct-row form keeps its storage. Reset empties it for
// Append without reallocating when it has room for every row; drawing a
// window into a warm form takes the same storage and allocates nothing; a
// window with more distinct rows than the form has room for gets new
// storage.
func TestReuse(t *testing.T) {
	steps := geom.NewClip(geom.R(0, 0, 40, 40), []geom.Rect{geom.R(0, 0, 20, 20), geom.R(0, 20, 40, 40)})
	var r Rows
	if err := r.RasterizeWindow(steps, 4, 0, 0, 10, 10); err != nil {
		t.Fatal(err)
	}
	pix, rep := &r.Pix[:1][0], &r.Rep[:1][0]
	r.Reset(3, 5)
	if r.W != 3 || r.H != 5 || len(r.Pix) != 0 || len(r.Rep) != 0 || &r.Pix[:1][0] != pix || &r.Rep[:1][0] != rep {
		t.Fatalf("Reset(3, 5): %dx%d with %d pixels and %d marks, storage kept %v", r.W, r.H, len(r.Pix), len(r.Rep), &r.Pix[:1][0] == pix)
	}
	for y := 0; y < 5; y++ {
		r.Append([]float64{0, float64(y / 2), 1})
	}
	if len(r.Pix) != 9 || &r.Pix[0] != pix || !r.Rep[1] || r.Rep[2] || !r.Rep[3] {
		t.Fatalf("appended rows: %v, marks %v", r.Pix, r.Rep)
	}
	solid := geom.NewClip(geom.R(0, 0, 40, 40), []geom.Rect{geom.R(0, 0, 40, 40)})
	if n := testing.AllocsPerRun(10, func() { _ = r.RasterizeWindow(solid, 4, 0, 0, 10, 10) }); n != 0 {
		t.Errorf("drawing into a warm form: %v allocations, want 0", n)
	}
	if &r.Pix[0] != pix {
		t.Error("drawing into a warm form did not reuse its storage")
	}
	ramp := geom.Clip{Frame: geom.R(0, 0, 40, 40)}
	for y := 0; y < 40; y += 4 {
		ramp.Rects = append(ramp.Rects, geom.R(0, y, y+4, y+4))
	}
	if err := r.RasterizeWindow(ramp, 4, 0, 0, 10, 10); err != nil {
		t.Fatal(err)
	}
	if len(r.Pix) != 100 || &r.Pix[0] == pix {
		t.Fatalf("ten distinct rows: %d pixels, new storage %v", len(r.Pix), &r.Pix[0] != pix)
	}
}
