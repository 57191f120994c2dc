// Package geom provides the Manhattan layout geometry primitives used by the
// synthetic benchmark generator, the rasterizer and the lithography model:
// axis-aligned rectangles, rectilinear polygons decomposed into rectangles,
// and clips (fixed windows of layout).
//
// All coordinates are integers in nanometres, matching the resolution at
// which the paper's clips are defined (a clip is 1200×1200 nm²).
package geom

import (
	"fmt"
	"sort"
)

// Rect is an axis-aligned rectangle with inclusive lower-left (X0, Y0) and
// exclusive upper-right (X1, Y1) corners, in nanometres. A Rect is valid when
// X0 < X1 and Y0 < Y1; zero- and negative-extent rectangles are empty.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// R is shorthand for constructing a Rect.
func R(x0, y0, x1, y1 int) Rect { return Rect{X0: x0, Y0: y0, X1: x1, Y1: y1} }

// W returns the rectangle width (0 when empty).
func (r Rect) W() int {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the rectangle height (0 when empty).
func (r Rect) H() int {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Area returns the rectangle area in nm².
func (r Rect) Area() int64 { return int64(r.W()) * int64(r.H()) }

// Canon returns the canonical form of r with corners ordered; an empty
// rectangle canonicalizes to the zero Rect.
func (r Rect) Canon() Rect {
	if r.X0 > r.X1 {
		r.X0, r.X1 = r.X1, r.X0
	}
	if r.Y0 > r.Y1 {
		r.Y0, r.Y1 = r.Y1, r.Y0
	}
	if r.Empty() {
		return Rect{}
	}
	return r
}

// Intersect returns the intersection of r and o (empty if disjoint).
func (r Rect) Intersect(o Rect) Rect {
	out := Rect{
		X0: max(r.X0, o.X0),
		Y0: max(r.Y0, o.Y0),
		X1: min(r.X1, o.X1),
		Y1: min(r.Y1, o.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	if o.Empty() {
		return true
	}
	return o.X0 >= r.X0 && o.X1 <= r.X1 && o.Y0 >= r.Y0 && o.Y1 <= r.Y1
}

// Union returns the bounding box of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o.Canon()
	}
	if o.Empty() {
		return r.Canon()
	}
	return Rect{
		X0: min(r.X0, o.X0),
		Y0: min(r.Y0, o.Y0),
		X1: max(r.X1, o.X1),
		Y1: max(r.Y1, o.Y1),
	}
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("(%d,%d)-(%d,%d)", r.X0, r.Y0, r.X1, r.Y1)
}

// Clip is a fixed square window of layout: a bounding frame plus the
// rectangles of drawn (metal) geometry clipped to that frame. Clips are the
// unit of classification in the paper — each clip is either a hotspot or
// not.
type Clip struct {
	// Frame is the clip window in chip coordinates.
	Frame Rect
	// Rects is the drawn geometry, clipped to Frame.
	Rects []Rect
}

// NewClip builds a clip from a frame and raw geometry, intersecting every
// rectangle with the frame and dropping empties.
func NewClip(frame Rect, rects []Rect) Clip {
	c := Clip{Frame: frame}
	for _, r := range rects {
		ri := r.Canon().Intersect(frame)
		if !ri.Empty() {
			c.Rects = append(c.Rects, ri)
		}
	}
	return c
}

// Normalize returns a copy of the clip translated so its frame's lower-left
// corner is the origin. Classification features are translation-invariant,
// so normalized clips compare equal when their geometry matches.
func (c Clip) Normalize() Clip {
	dx, dy := -c.Frame.X0, -c.Frame.Y0
	out := Clip{Frame: c.Frame.Translate(dx, dy)}
	out.Rects = make([]Rect, len(c.Rects))
	for i, r := range c.Rects {
		out.Rects[i] = r.Translate(dx, dy)
	}
	return out
}

// DrawnArea returns the total drawn area in nm², counting overlapping
// rectangles once (union area).
func (c Clip) DrawnArea() int64 { return UnionArea(c.Rects) }

// Density returns the drawn-area fraction of the clip window in [0, 1].
func (c Clip) Density() float64 {
	fa := c.Frame.Area()
	if fa == 0 {
		return 0
	}
	return float64(c.DrawnArea()) / float64(fa)
}

// UnionArea computes the area of the union of a set of rectangles using a
// sweep over x with interval merging in y. O(n² log n) in the worst case,
// ample for clip-sized inputs.
func UnionArea(rects []Rect) int64 {
	xs := make([]int, 0, 2*len(rects))
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		xs = append(xs, r.X0, r.X1)
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Ints(xs)
	xs = dedupInts(xs)
	var total int64
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		if x1 == x0 {
			continue
		}
		// Collect y intervals of rects spanning this x slab and merge.
		var ivs []Rect
		for _, r := range rects {
			if r.Empty() || r.X0 >= x1 || r.X1 <= x0 {
				continue
			}
			ivs = append(ivs, Rect{Y0: r.Y0, Y1: r.Y1})
		}
		if len(ivs) == 0 {
			continue
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].Y0 < ivs[b].Y0 })
		covered := int64(0)
		curLo, curHi := ivs[0].Y0, ivs[0].Y1
		for _, iv := range ivs[1:] {
			if iv.Y0 > curHi {
				covered += int64(curHi - curLo)
				curLo, curHi = iv.Y0, iv.Y1
			} else if iv.Y1 > curHi {
				curHi = iv.Y1
			}
		}
		covered += int64(curHi - curLo)
		total += covered * int64(x1-x0)
	}
	return total
}

func dedupInts(xs []int) []int {
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// MergeTouching coalesces rectangles that align exactly along a shared edge
// into single rectangles, repeating until a fixed point. It keeps generated
// layouts compact; it is not a full rectilinear boolean engine.
func MergeTouching(rects []Rect) []Rect {
	out := append([]Rect(nil), rects...)
	for changed := true; changed; {
		changed = false
	outer:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if m, ok := mergePair(out[i], out[j]); ok {
					out[i] = m
					out = append(out[:j], out[j+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	return out
}

func mergePair(a, b Rect) (Rect, bool) {
	if a.Y0 == b.Y0 && a.Y1 == b.Y1 && (a.X1 == b.X0 || b.X1 == a.X0) {
		return Rect{min(a.X0, b.X0), a.Y0, max(a.X1, b.X1), a.Y1}, true
	}
	if a.X0 == b.X0 && a.X1 == b.X1 && (a.Y1 == b.Y0 || b.Y1 == a.Y0) {
		return Rect{a.X0, min(a.Y0, b.Y0), a.X1, max(a.Y1, b.Y1)}, true
	}
	// Identical or contained rectangles collapse too.
	if a.ContainsRect(b) {
		return a, true
	}
	if b.ContainsRect(a) {
		return b, true
	}
	return Rect{}, false
}
