package fused

import "hotspot/internal/tensor"

// convRun executes one fused conv(+bias)(+ReLU)(+pool) op over the
// coefficient rows its plan addresses (o.base at o.off[p], o.width virtual
// columns each), four output channels at a time into the shared tile
// buffer; each finished channel is emitted at once (pooled convs fold it
// into the 2×2 max-pool), so the pre-pool activation never exists as a full
// tensor.
//
//hsd:noalloc
func convRun(o *op) {
	w := o.width
	t := o.tile[:tensor.TileRows*w]
	for i := 0; i < o.outC; i += tensor.TileRows {
		convTile(t, o, o.base, o.off, i)
		for r := 0; r < tensor.TileRows && i+r < o.outC; r++ {
			emitRow(o, i+r, t[r*w:r*w+w])
		}
	}
}

// convTile computes output channels i..i+3 of conv o into the rows of t,
// len(t)/TileRows virtual columns each, where coefficient row p is
// base[off[p]:]: one tensor.ConvTile with bias and ReLU folded into its
// epilogue, the kernel and per-element order the layered Conv2D's product
// runs, so the fused and layered paths produce bit-identical outputs.
// Every column is its own sum, so a tile over any run of columns computes
// them exactly as a tile over all of them does. When outC is not a
// multiple of four, the last tile's unused rows recompute the last live
// channel and are never emitted.
//
//hsd:noalloc
func convTile(t []float64, o *op, base []float64, off []int, i int) {
	m, k := o.outC, len(off)
	r1, r2, r3 := min(i+1, m-1), min(i+2, m-1), min(i+3, m-1)
	tensor.ConvTile(t,
		o.w[i*k:i*k+k], o.w[r1*k:r1*k+k], o.w[r2*k:r2*k+k], o.w[r3*k:r3*k+k],
		base, off,
		o.bias[i], o.bias[r1], o.bias[r2], o.bias[r3], o.relu)
}

// emitRow stores output channel c from its finished virtual-column row:
// output element (oy, ox) is row[oy·vw+ox]. Pooled convs fold the row into
// the 2×2 max-pool in place; the others copy the ow valid columns out of
// every vw.
//
//hsd:noalloc
func emitRow(o *op, c int, row []float64) {
	if o.pool {
		phw := o.ph * o.pw
		poolRow(o.out[c*phw:(c+1)*phw], row, o.vw, o.ph, o.pw)
		return
	}
	n := o.oh * o.ow
	dst := o.out[c*n : c*n+n]
	for oy := 0; oy < o.oh; oy++ {
		copy(dst[oy*o.ow:oy*o.ow+o.ow], row[oy*o.vw:oy*o.vw+o.ow])
	}
}

// poolRow 2×2-max-pools one channel row: src is one channel's activation
// viewed as (h, w) with w = srcW, dst is (ph, pw). Comparison order (top
// left, top right, bottom left, bottom right; strictly greater replaces)
// matches nn.MaxPool2 so NaN propagation is identical too. Odd trailing
// rows/columns are dropped, as in the layered pool.
//
//hsd:noalloc
func poolRow(dst, src []float64, srcW, ph, pw int) {
	for py := 0; py < ph; py++ {
		srow := src[2*py*srcW:]
		drow := dst[py*pw : py*pw+pw]
		for px := 0; px < pw; px++ {
			i0 := 2 * px
			best := srow[i0]
			if v := srow[i0+1]; v > best {
				best = v
			}
			if v := srow[i0+srcW]; v > best {
				best = v
			}
			if v := srow[i0+srcW+1]; v > best {
				best = v
			}
			drow[px] = best
		}
	}
}

// denseTile executes one fused dense(+bias)(+ReLU) op over TileRows
// samples held transposed: o.in[j·TileRows + s] is input j of sample s,
// and o.out[i·TileRows + s] receives output i. Each block of four weight
// rows × four samples is one tensor.DotTile, four lanes wide, stored
// straight into its rows of o.out: every lane is tensor.MatVecInto's
// sequential chain (start at +0, add the products in input order). The
// bias lands after the full dot and the rectifier after the bias, exactly
// as the layered Dense.Forward + ReLU pair computes. When outLen is not a
// multiple of four, the last tile's unused rows recompute the last live
// row and are never stored.
//
//hsd:noalloc
func denseTile(o *op) {
	k, m := o.inLen, o.outLen
	for i := 0; i < m; i += tensor.TileRows {
		rows := min(tensor.TileRows, m-i)
		r1, r2, r3 := i+min(1, rows-1), i+min(2, rows-1), i+min(3, rows-1)
		tensor.DotTile(o.out[i*tensor.TileRows:], tensor.TileRows, rows, tensor.TileRows, o.in, o.off,
			o.w[i*k:i*k+k], o.w[r1*k:r1*k+k], o.w[r2*k:r2*k+k], o.w[r3*k:r3*k+k])
		for r := i; r < i+rows; r++ {
			b := o.bias[r]
			dst := o.out[r*tensor.TileRows : (r+1)*tensor.TileRows]
			for c, v := range dst {
				v += b
				if o.relu {
					v = rectify(v)
				}
				dst[c] = v
			}
		}
	}
}

// rectify is max(0, v) under nn.ReLU's exact rule: keep when v > 0, else 0.
func rectify(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// reluRun executes a standalone rectifier op (a ReLU not adjacent to a
// conv or dense producer, e.g. following a pool). It is elementwise, so it
// runs the same on one sample and on the dense tail's transposed ones.
//
//hsd:noalloc
func reluRun(o *op, x []float64) {
	out := o.out
	for i, v := range x[:len(out)] {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// poolRun executes a standalone 2×2 max-pool op channel by channel.
//
//hsd:noalloc
func poolRun(o *op, x []float64) {
	hw := o.inH * o.inW
	phw := o.ph * o.pw
	for c := 0; c < o.inC; c++ {
		poolRow(o.out[c*phw:(c+1)*phw], x[c*hw:(c+1)*hw], o.inW, o.ph, o.pw)
	}
}
