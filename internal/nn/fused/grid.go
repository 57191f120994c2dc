package fused

import (
	"fmt"

	"hotspot/internal/tensor"
)

// The grid path scores overlapping windows of one die without redoing the
// work they share. A scan window is an h×w block of a die-level input
// plane, and windows one block apart overlap in all but one block column.
// The leading stride-1 "same" convs of a plan (k = 2·pad + 1, so output
// (y, x) is centred on input (y, x)) compute, at a window position whose
// receptive field through them lies inside the window, exactly the sums a
// die-level conv computes at the matching die position: the tile kernels
// accumulate every output column in the same order over the same
// coefficients whatever its place in the row. Only the ring of positions
// closer to the window's edge than the convs' cumulative pad sees the
// window's zero border. So a Grid keeps one die-level map per shared conv,
// and ForwardGrid computes just the ring on the tile kernel and copies the
// interior from the maps. Pooling (stride 2) ends the sharing: a window's
// pooled output depends on its alignment, so the shared prefix stops after
// the first pooled conv and the rest of the plan runs per window.

// colStep is the tile kernels' column step: they compute virtual columns
// four at a time (tensor.TileWidth rounds up to it).
const colStep = 4

// sharedDepth counts the plan's shared prefix: the leading stride-1 same
// convs of a (C, H, W)-input plan, up to and including the first pooled
// one.
func sharedDepth(ops []op, inShape []int) int {
	if len(inShape) != 3 {
		return 0
	}
	d := 0
	for d < len(ops) {
		o := &ops[d]
		if o.kind != opConv || o.stride != 1 || o.k != 2*o.pad+1 {
			break
		}
		d++
		if o.pool {
			break
		}
	}
	return d
}

// span is a run of virtual columns [start, start+width), width a multiple
// of colStep, that the tile kernel computes for a window's ring; scatter
// entries [lo, hi) of its ring plan read its tile rows.
type span struct{ start, width, lo, hi int }

// ringPlan is one shared conv's grid path. Its output position (y, x) is
// virtual column y·vw + x of the conv's tile; positions within cum (the
// cumulative pad of the shared convs up to this one) of the window's edge
// are the ring, computed per window over spans, and the interior
// [cum, oh−cum)×[cum, ow−cum) is copied from the conv's die map. The whole
// output lands in dst, channel c's (y, x) at c·cs + org + y·rs + x: the
// next shared conv's zero-bordered plane, the op's own output, or, for a
// pooled conv, pre-pool rows holding one group of TileRows channels that
// are pooled into the op's output as soon as they are complete.
type ringPlan struct {
	cum   int
	spans []span
	// Scatter entry i copies column from[i] of its span's tile row to
	// destination offset to[i] of the row's channel.
	from, to    []int
	dst         []float64
	cs, rs, org int
	tile        []float64 // the spans' tile scratch
}

// planRing covers the ring of an oh×ow output whose element (y, x) is
// virtual column y·vw + x — the positions closer than cum to an edge —
// with colStep-column groups, each starting at the first ring position no
// earlier group covers, and merges touching groups into spans. In scan
// order, each ring position gets one scatter entry: its column within its
// span (from) and its index y·ow + x (pos).
func planRing(oh, ow, vw, cum int) (spans []span, from, pos []int) {
	end := 0 // columns below end are covered
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			if y >= cum && y < oh-cum && x >= cum && x < ow-cum {
				continue
			}
			j := y*vw + x
			if len(spans) == 0 || j >= end {
				if n := len(spans); n > 0 && j == end {
					spans[n-1].width += colStep
				} else {
					spans = append(spans, span{start: j, width: colStep, lo: len(from)})
				}
				end = j + colStep
			}
			sp := &spans[len(spans)-1]
			from = append(from, j-sp.start)
			pos = append(pos, y*ow+x)
			sp.hi = len(from)
		}
	}
	return spans, from, pos
}

// planRings plans the ring path of the first depth ops, the shared prefix:
// the spans and scatter of each conv, and the layout of its destination.
// bindRings binds the buffers once the arena exists.
func planRings(ops []op, depth int) []ringPlan {
	rings := make([]ringPlan, depth)
	cum := 0
	for s := range rings {
		o, rp := &ops[s], &rings[s]
		cum += o.pad
		rp.cum = cum
		rp.cs, rp.rs = o.oh*o.ow, o.ow
		if s+1 < depth {
			next := &ops[s+1]
			hp, wp := next.inH+2*next.pad, next.inW+2*next.pad
			rp.cs, rp.rs, rp.org = hp*wp, wp, next.pad*wp+next.pad
		}
		rp.spans, rp.from, rp.to = planRing(o.oh, o.ow, o.inW+2*o.pad, cum)
		for i, p := range rp.to { // position y·ow + x to destination offset
			rp.to[i] = rp.org + p/o.ow*rp.rs + p%o.ow
		}
	}
	return rings
}

// end is the first virtual column past the plan's last span.
func (rp *ringPlan) end() int {
	if len(rp.spans) == 0 {
		return 0
	}
	last := rp.spans[len(rp.spans)-1]
	return last.start + last.width
}

// maxWidth is the plan's widest span.
func (rp *ringPlan) maxWidth() int {
	w := 0
	for _, sp := range rp.spans {
		w = max(w, sp.width)
	}
	return w
}

// bindRings points each ring plan at its destination and tile scratch:
// rows is the pooled conv's pre-pool rows, tile the spans' scratch, both
// carved from the arena's tile region.
func (e *Engine) bindRings(rows, tile []float64) {
	for s := range e.rings {
		rp := &e.rings[s]
		rp.tile = tile
		switch {
		case s+1 < e.depth:
			rp.dst = e.ops[s+1].base
		case e.ops[s].pool:
			rp.dst = rows
		default:
			rp.dst = e.ops[s].out
		}
	}
}

// Grid is the die-level state of an engine's shared prefix over an
// nbx×nby-block die: a channel-major input plane [C][nby+2b][nbx+2b] with
// a zero border b (the first shared conv's pad) that the caller fills
// block by block through Cell, and one die-level output map per shared
// conv, which Update keeps current. Any engine compiled from the same
// network for the same input shape scores its windows with ForwardGrid;
// the maps are computed with the weights as of the last Update, so the
// weights must not change between an Update and the ForwardGrid calls it
// serves.
// ForwardGrid only reads a Grid, so engines on several goroutines may
// share one, but not while Update or a Cell write runs.
type Grid struct {
	c, h, w  int // window input shape: c channels over h×w blocks
	nbx, nby int
	b        int // input plane border
	pw, pcs  int // input plane row width and channel stride
	in       []float64
	maps     []gridMap
	tile     []float64 // Update's tile scratch
}

// gridMap is one shared conv's die map [outC][nby+2b][nbx+2b], with a
// zero border b (the next shared conv's pad, 0 for the last), and the
// die-level plan Update computes it by: offsets into the plane it reads
// (the input plane or the previous map, whose border is this conv's pad).
type gridMap struct {
	o       op // geometry and aliased weights
	cum     int
	src     []float64
	sw      int // src row width
	off     []int
	out     []float64
	b       int
	mw, mcs int // map row width and channel stride
}

// tileSlack is the most a tile's rounded-up columns run past the last
// live one.
const tileSlack = colStep - 1

// NewGrid builds the zeroed Grid of e's shared prefix for an nbx×nby-block
// die: window (wx, wy) covers blocks [wx, wx+W)×[wy, wy+H) for e's (C, H,
// W) input shape.
func NewGrid(e *Engine, nbx, nby int) (*Grid, error) {
	if len(e.inShape) != 3 {
		return nil, fmt.Errorf("fused: a grid needs a (C, H, W) input, engine compiled for %v", e.inShape)
	}
	c, h, w := e.inShape[0], e.inShape[1], e.inShape[2]
	if nbx < w || nby < h {
		return nil, fmt.Errorf("fused: %dx%d-block grid smaller than the %dx%d-block window", nbx, nby, w, h)
	}
	g := &Grid{c: c, h: h, w: w, nbx: nbx, nby: nby}
	if e.depth > 0 {
		g.b = e.ops[0].pad
	}
	g.pw = nbx + 2*g.b
	g.pcs = (nby + 2*g.b) * g.pw
	// Update reads tiles of its rows' planes past their last column.
	g.in = make([]float64, c*g.pcs+tileSlack)
	g.tile = make([]float64, tensor.TileRows*tensor.TileWidth(nbx))
	src, sw := g.in, g.pw
	for s := 0; s < e.depth; s++ {
		o := &e.ops[s]
		b := 0
		if s+1 < e.depth {
			b = e.ops[s+1].pad
		}
		m := gridMap{
			o:   op{kind: opConv, outC: o.outC, k: o.k, pad: o.pad, relu: o.relu, w: o.w, bias: o.bias},
			cum: e.rings[s].cum,
			src: src, sw: sw,
			off: make([]int, len(o.off)),
			b:   b, mw: nbx + 2*b, mcs: (nby + 2*b) * (nbx + 2*b),
		}
		hp := nby + 2*o.pad
		for p := range m.off {
			ch, ky, kx := p/(o.k*o.k), p/o.k%o.k, p%o.k
			m.off[p] = ch*hp*sw + ky*sw + kx
		}
		m.out = make([]float64, o.outC*m.mcs+tileSlack)
		g.maps = append(g.maps, m)
		src, sw = m.out, m.mw
	}
	return g, nil
}

// Cell returns where block (bx, by)'s C input values go: value i at
// plane[i·stride].
func (g *Grid) Cell(bx, by int) (plane []float64, stride int) {
	return g.in[(by+g.b)*g.pw+bx+g.b:], g.pcs
}

// Update recomputes the maps after the input blocks [x0, x1)×[y0, y1)
// changed (the range is clamped to the die): each shared conv's map over
// that range grown by the conv's cumulative pad, which is every map
// position whose value reads a changed block, on the tile kernel a
// window's conv runs. It allocates nothing.
//
//hsd:noalloc
func (g *Grid) Update(x0, y0, x1, y1 int) {
	x0, y0, x1, y1 = max(x0, 0), max(y0, 0), min(x1, g.nbx), min(y1, g.nby)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	for s := range g.maps {
		m := &g.maps[s]
		ux0, ux1 := max(x0-m.cum, 0), min(x1+m.cum, g.nbx)
		uy0, uy1 := max(y0-m.cum, 0), min(y1+m.cum, g.nby)
		g.updateRows(m, ux0, uy0, ux1, uy1)
	}
}

// updateRows computes map m over [x0, x1)×[y0, y1), one die row of
// TileRows channels per tile.
//
//hsd:noalloc
func (g *Grid) updateRows(m *gridMap, x0, y0, x1, y1 int) {
	n := x1 - x0
	w := tensor.TileWidth(n)
	t := g.tile[:tensor.TileRows*w]
	for y := y0; y < y1; y++ {
		base := m.src[y*m.sw+x0:]
		dst := m.out[(y+m.b)*m.mw+x0+m.b:]
		for i := 0; i < m.o.outC; i += tensor.TileRows {
			convTile(t, &m.o, base, m.off, i)
			for r := 0; r < tensor.TileRows && i+r < m.o.outC; r++ {
				c := (i + r) * m.mcs
				copy(dst[c:c+n], t[r*w:r*w+n])
			}
		}
	}
}

// ForwardGrid scores the len(out)/OutLen() consecutive windows of g's row
// wy from window wx and writes window i's output to out[i·OutLen() :
// (i+1)·OutLen()], bit for bit what ForwardBatch returns for the windows'
// input tensors: four windows per group, each window's input rows copied
// from the grid into the first conv's zero-bordered plane, each shared
// conv computing only its ring on the tile kernel and copying its interior
// from the die map, and the rest of the plan run as ForwardBatch runs it.
// A plan without a shared prefix stages each window as an input tensor.
// g must come from an engine compiled from the same network for the same
// input shape. It performs no allocations.
func (e *Engine) ForwardGrid(out []float64, g *Grid, wx, wy int) error {
	if !e.sameGrid(g) {
		return fmt.Errorf("fused: grid built for another network or input shape")
	}
	n := len(e.out)
	if len(out)%n != 0 {
		return fmt.Errorf("fused: output holds %d values, not a multiple of %d", len(out), n)
	}
	count := len(out) / n
	if count == 0 {
		return nil
	}
	if wx < 0 || wy < 0 || wx+count-1 > g.nbx-g.w || wy > g.nby-g.h {
		return fmt.Errorf("fused: windows %d..%d of row %d outside the %dx%d-window grid",
			wx, wx+count-1, wy, g.nbx-g.w+1, g.nby-g.h+1)
	}
	for lo := 0; lo < count; lo += tensor.TileRows {
		hi := min(lo+tensor.TileRows, count)
		if err := e.forwardGroup(out[lo*n:hi*n], source{g: g, wx: wx + lo, wy: wy}, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// sameGrid reports whether g was built for e's input shape and for shared
// convs that alias e's weights.
func (e *Engine) sameGrid(g *Grid) bool {
	if len(e.inShape) != 3 || g.c != e.inShape[0] || g.h != e.inShape[1] || g.w != e.inShape[2] ||
		len(g.maps) != e.depth {
		return false
	}
	for s := range g.maps {
		if &g.maps[s].o.w[0] != &e.ops[s].w[0] || &g.maps[s].o.bias[0] != &e.ops[s].bias[0] {
			return false
		}
	}
	return true
}

// gridPrefix runs the shared prefix for window (wx, wy) of g: the
// window's input rows into the first conv's plane, then each shared conv
// on its ring path.
//
//hsd:noalloc
func (e *Engine) gridPrefix(g *Grid, wx, wy int) {
	o := &e.ops[0]
	wp := o.inW + 2*o.pad
	g.window(o.base, (o.inH+2*o.pad)*wp, wp, o.pad*wp+o.pad, wx, wy)
	for s := range e.rings {
		ringConv(&e.ops[s], &e.rings[s], &g.maps[s], wx, wy)
	}
}

// window copies window (wx, wy)'s C×H×W input into dst, element (c, y, x)
// at c·cs + org + y·rs + x.
//
//hsd:noalloc
func (g *Grid) window(dst []float64, cs, rs, org, wx, wy int) {
	for c := 0; c < g.c; c++ {
		src := g.in[c*g.pcs+(wy+g.b)*g.pw+wx+g.b:]
		d := dst[c*cs+org:]
		for y := 0; y < g.h; y++ {
			copy(d[y*rs:y*rs+g.w], src[y*g.pw:y*g.pw+g.w])
		}
	}
}

// ringConv computes shared conv o for window (wx, wy) into its ring
// plan's destination, TileRows channels at a time: the ring spans on the
// tile kernel, scattered through the plan's entries, and the interior
// rows copied from die map m. A pooled conv then pools the group's rows
// into its output.
//
//hsd:noalloc
func ringConv(o *op, rp *ringPlan, m *gridMap, wx, wy int) {
	p, iw := rp.cum, o.ow-2*rp.cum
	for i := 0; i < o.outC; i += tensor.TileRows {
		live := min(tensor.TileRows, o.outC-i)
		dst := rp.dst
		if !o.pool {
			dst = dst[i*rp.cs:]
		}
		for _, sp := range rp.spans {
			t := rp.tile[:tensor.TileRows*sp.width]
			convTile(t, o, o.base[sp.start:], o.off, i)
			for r := 0; r < live; r++ {
				row, d := t[r*sp.width:(r+1)*sp.width], dst[r*rp.cs:]
				for k := sp.lo; k < sp.hi; k++ {
					d[rp.to[k]] = row[rp.from[k]]
				}
			}
		}
		for r := 0; r < live; r++ {
			d := dst[r*rp.cs+rp.org:]
			if iw > 0 {
				src := m.out[(i+r)*m.mcs+(wy+m.b)*m.mw+wx+m.b:]
				for y := p; y < o.oh-p; y++ {
					copy(d[y*rp.rs+p:y*rp.rs+p+iw], src[y*m.mw+p:y*m.mw+p+iw])
				}
			}
			if o.pool {
				phw := o.ph * o.pw
				poolRow(o.out[(i+r)*phw:(i+r+1)*phw], dst[r*rp.cs:], o.ow, o.ph, o.pw)
			}
		}
	}
}
