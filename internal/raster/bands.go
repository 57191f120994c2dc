package raster

import (
	"fmt"
	"math/bits"

	"hotspot/internal/geom"
)

// Band drawing. The clamped rectangles' y-edges cut a window into bands of
// rows that every rectangle covers the same way: a band starts at the
// window's first row, at each rectangle's first row and the row after its
// last, and at the row after a first row or on a last row that the
// rectangle covers only in part. Each band's first row is drawn once, with
// the rectangles that reach it in input order and Rasterize's per-pixel
// arithmetic, so it holds the bits of every row of the band. The bands'
// rows are drawn packed, band j's as row j; the dense window then copies
// each down its band, and the distinct-row form keeps each that differs
// from the last one kept. Nothing is cleared but the rows drawn, and no
// row is read back but the band rows the form compares.

// window is the part of a clip's pixel grid being drawn: pixels
// [x0,x0+w)×[y0,y0+h) at res nm a pixel.
type window struct {
	c                  geom.Clip
	res, x0, y0, w, h  int
	fx, fy             int // the frame's origin
	wx0, wx1, wy0, wy1 int // the window in frame-relative nm
	area               float64
	shift              int // log2(res) when res is a power of two, else −1
}

// div returns v/res for v ≥ 0: a shift at a power-of-two resolution, such
// as the default 4 nm/px. A clip of many thin rectangles spends much of
// its drawing time in 64-bit divisions otherwise
// (BenchmarkRasterizeManyEdges).
func (win *window) div(v int) int {
	if win.shift >= 0 {
		return v >> win.shift
	}
	return v / win.res
}

// newWindow checks the resolution and that the window lies within the
// frame's grid.
func newWindow(c geom.Clip, resNM, x0, y0, w, h int) (window, error) {
	if resNM <= 0 {
		return window{}, fmt.Errorf("raster: resolution must be positive, got %d", resNM)
	}
	gw := (c.Frame.W() + resNM - 1) / resNM
	gh := (c.Frame.H() + resNM - 1) / resNM
	if err := checkWindow(x0, y0, x0+w, y0+h, gw, gh); err != nil {
		return window{}, err
	}
	win := window{
		c: c, res: resNM, x0: x0, y0: y0, w: w, h: h, fx: c.Frame.X0, fy: c.Frame.Y0,
		wx0: x0 * resNM, wx1: (x0 + w) * resNM, wy0: y0 * resNM, wy1: (y0 + h) * resNM,
		area: float64(resNM) * float64(resNM), shift: -1,
	}
	if resNM&(resNM-1) == 0 {
		win.shift = bits.TrailingZeros(uint(resNM))
	}
	return win, nil
}

// span is a rectangle clamped to a window: its extent in frame-relative
// nm, the window rows [a0, a1) it reaches and, for drawing, the grid
// columns [px0, px1) it reaches, of which [ix0, ix1) lie wholly inside it.
type span struct{ rx0, rx1, ry0, ry1, a0, a1, px0, px1, ix0, ix1 int }

// clamp cuts r to the window into s's extent, which leaves every window
// pixel's overlap unchanged and keeps a rectangle past the frame's edges
// from indexing outside the window. It reports false when nothing of r is
// left. Like rows, it is small enough to inline into the loops over every
// rectangle.
func (win *window) clamp(r *geom.Rect, s *span) bool {
	s.rx0, s.rx1 = max(r.X0-win.fx, win.wx0), min(r.X1-win.fx, win.wx1)
	s.ry0, s.ry1 = max(r.Y0-win.fy, win.wy0), min(r.Y1-win.fy, win.wy1)
	return s.rx0 < s.rx1 && s.ry0 < s.ry1
}

// rows sets the window rows a clamped s reaches.
func (win *window) rows(s *span) {
	s.a0, s.a1 = win.div(s.ry0)-win.y0, win.div(s.ry1+win.res-1)-win.y0
}

// bandSet holds a window's band starts: bit a of start is set when window
// row a starts a band, and before[i] counts the starts in start[:i].
type bandSet struct {
	start  []uint64
	before []int32
}

// bandScratch keeps the band starts of a window up to 4096 rows tall on
// the caller's stack, so drawing allocates nothing for them.
type bandScratch struct {
	start  [64]uint64
	before [64]int32
}

// bands returns an empty set for h rows, in sc's arrays when they hold it.
func (sc *bandScratch) bands(h int) bandSet {
	n := (h + 63) / 64
	if n > len(sc.start) {
		return bandSet{start: make([]uint64, n), before: make([]int32, n)}
	}
	clear(sc.start[:n])
	return bandSet{start: sc.start[:n], before: sc.before[:n]}
}

func (b bandSet) set(a int) { b.start[a>>6] |= 1 << (a & 63) }

// next returns the first band start at or after row a, or a row past the
// window when there is none.
func (b bandSet) next(a int) int {
	i := a >> 6
	if i >= len(b.start) {
		return a
	}
	if m := b.start[i] >> (a & 63); m != 0 {
		return a + bits.TrailingZeros64(m)
	}
	for i++; i < len(b.start); i++ {
		if b.start[i] != 0 {
			return i<<6 + bits.TrailingZeros64(b.start[i])
		}
	}
	return len(b.start) << 6
}

// prev returns the last band start before row a > 0.
func (b bandSet) prev(a int) int {
	i := (a - 1) >> 6
	m := b.start[i] & (1<<((a-1)&63+1) - 1)
	for m == 0 {
		i--
		m = b.start[i]
	}
	return i<<6 + 63 - bits.LeadingZeros64(m)
}

// rank returns the index of the band that starts at row a.
func (b bandSet) rank(a int) int {
	i := a >> 6
	return int(b.before[i]) + bits.OnesCount64(b.start[i]&(1<<(a&63)-1))
}

// markBands sets the window's band starts in b and returns the number of
// bands.
//
//hsd:noalloc
func (win *window) markBands(b bandSet) int {
	if win.h == 0 {
		return 0
	}
	b.set(0)
	var s span
	for i := range win.c.Rects {
		if !win.clamp(&win.c.Rects[i], &s) {
			continue
		}
		win.rows(&s)
		b.set(s.a0)
		if s.ry0 != (win.y0+s.a0)*win.res && s.a0+1 < s.a1 {
			b.set(s.a0 + 1) // the first row is covered in part
		}
		if s.ry1 != (win.y0+s.a1)*win.res && s.a1-1 > s.a0 {
			b.set(s.a1 - 1) // so is the last
		}
		if s.a1 < win.h {
			b.set(s.a1)
		}
	}
	n := 0
	for i, m := range b.start {
		b.before[i] = int32(n)
		n += bits.OnesCount64(m)
	}
	return n
}

// fullRow is a run of fully covered pixels for drawBands to copy.
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

// drawBands draws the first row of each of the window's bands into pix, w
// pixels a row, band j's as row j, onto zeros. Each rectangle is drawn, in
// input order, into the rows of the bands it reaches, so each drawn pixel
// sums the rectangles it would sum in Rasterize, in the same order and
// with the same arithmetic.
//
// A pixel a rectangle covers whole is stored as exactly 1: its
// ovX·ovY/area is exactly 1.0 and pixels are never negative, so the
// saturating sum is 1 whatever the pixel held.
//
//hsd:noalloc
func (win *window) drawBands(pix []float64, b bandSet) {
	w, res := win.w, win.res
	var s span
	for i := range win.c.Rects {
		if !win.clamp(&win.c.Rects[i], &s) {
			continue
		}
		win.rows(&s)
		s.px0, s.px1 = win.div(s.rx0), win.div(s.rx1+res-1)
		s.ix0, s.ix1 = s.px0, s.px1
		if s.rx0 != s.px0*res {
			s.ix0++
		}
		if s.rx1 != s.px1*res {
			s.ix1--
		}
		d := b.rank(s.a0)
		for a := s.a0; a < s.a1; a = b.next(a + 1) {
			cellY0 := (win.y0 + a) * res
			win.drawRow(pix[d*w:d*w+w], &s, min(s.ry1, cellY0+res)-max(s.ry0, cellY0))
			d++
		}
	}
}

// drawRow adds the span to row, a window row it covers ovY nm of the
// height of. A column the span covers whole adds float64(res)·ovY/area,
// the value cover computes for it, so that value is computed once: 1.0 for
// a row covered whole, where the saturating sum is then 1. It is a call of
// its own so that the pixel loops keep their values in registers.
//
//hsd:noalloc
func (win *window) drawRow(row []float64, s *span, ovY int) {
	x0, res, area := win.x0, win.res, win.area
	px0, px1, ix0, ix1, rx0, rx1 := s.px0, s.px1, s.ix0, s.ix1, s.rx0, s.rx1
	if ix0 >= ix1 {
		cover(row[px0-x0:px1-x0], px0, rx0, rx1, res, float64(ovY), area)
		return
	}
	if in := row[ix0-x0 : ix1-x0]; ovY == res {
		for len(in) > 0 {
			in = in[copy(in, fullRow[:]):]
		}
	} else {
		c := float64(res) * float64(ovY) / area
		for i, p := range in {
			v := p + c
			if v > 1 {
				v = 1
			}
			in[i] = v
		}
	}
	cover(row[px0-x0:ix0-x0], px0, rx0, rx1, res, float64(ovY), area)
	cover(row[ix1-x0:px1-x0], ix1, rx0, rx1, res, float64(ovY), area)
}

// RasterizeWindow renders pixels [x0,x0+w)×[y0,y0+h) of Rasterize's grid
// for the clip as a new w×h image. Each band's first row is drawn once and
// copied down the band, so every pixel holds the sum Rasterize gives it,
// bit for bit, and the rest of the frame is never drawn. A window outside
// the frame's grid fails with SubImage's error, before anything is
// allocated.
func RasterizeWindow(c geom.Clip, resNM, x0, y0, w, h int) (*Image, error) {
	win, err := newWindow(c, resNM, x0, y0, w, h)
	if err != nil {
		return nil, err
	}
	im := NewImage(w, h)
	var sc bandScratch
	b := sc.bands(h)
	n := win.markBands(b)
	win.drawBands(im.Pix[:n*w], b)
	// Band j's row is row j, at or above its band [a, e): copy it down the
	// band from the last band up, so no band's row is overwritten before
	// it is copied.
	for e, j := h, n-1; j >= 0; j-- {
		a := b.prev(e)
		for y := e - 1; y >= a && y > j; y-- {
			copy(im.Pix[y*w:y*w+w], im.Pix[j*w:j*w+w])
		}
		e = a
	}
	return im, nil
}

// RasterizeWindow draws the window RasterizeWindow renders into r as its
// distinct rows, keeping r's storage where it has room. Each band's first
// row is drawn once, by the routine that draws the dense window, and
// stored only when its bits differ from the last stored row; the band's
// other rows are marked as repeats. So the rows are the dense window's,
// bit for bit, and the marks are what comparing each row with the row
// above gives. A warm r allocates nothing for a window up to 4096 rows
// tall. A window outside the frame's grid fails with SubImage's error and
// leaves r as it was.
func (r *Rows) RasterizeWindow(c geom.Clip, resNM, x0, y0, w, h int) error {
	win, err := newWindow(c, resNM, x0, y0, w, h)
	if err != nil {
		return err
	}
	var sc bandScratch
	b := sc.bands(h)
	n := win.markBands(b)
	r.size(w, h, n)
	pix := r.Pix[:n*w]
	clear(pix)
	win.drawBands(pix, b)
	r.Rep = r.Rep[:h]
	k := 0 // the last stored row
	for a, j := 0, 0; a < h; j++ {
		e := min(b.next(a+1), h)
		rep := j > 0 && equalBits(pix[j*w:j*w+w], pix[k*w:k*w+w])
		if j > 0 && !rep {
			if k++; k != j {
				copy(pix[k*w:k*w+w], pix[j*w:j*w+w])
			}
		}
		r.Rep[a] = rep
		for y := a + 1; y < e; y++ {
			r.Rep[y] = true
		}
		a = e
	}
	r.Pix = pix[:min(n, k+1)*w]
	return nil
}
