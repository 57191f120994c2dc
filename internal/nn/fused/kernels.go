package fused

import "hotspot/internal/tensor"

// convRun executes one fused conv(+bias)(+ReLU)(+pool) op over the
// coefficient rows its plan addresses (o.base at o.off[p], o.width virtual
// columns each). Kernel selection replicates the layered path's density
// gate exactly: the same tensor.SparseSkip decision over the same weight
// data, so the fused and layered paths always take structurally matching
// kernels and produce bit-identical outputs.
func convRun(o *op) {
	if tensor.SparseSkip(o.w[:o.outC*len(o.off)]) {
		convSparse(o)
		return
	}
	convDense(o)
}

// convDense is the blocked dense kernel. Output channels are produced four
// at a time by tensor.ConvTile into the shared tile buffer, with bias and
// ReLU folded into the kernel epilogue; each finished channel is emitted at
// once (pooled convs fold it into the 2×2 max-pool), so the pre-pool
// activation never exists as a full tensor. When outC is not a multiple of
// four, the last tile's unused rows recompute the last live channel and
// are never emitted.
func convDense(o *op) {
	m, k, w := o.outC, len(o.off), o.width
	t := o.tile[:tensor.TileRows*w]
	for i := 0; i < m; i += tensor.TileRows {
		r1, r2, r3 := min(i+1, m-1), min(i+2, m-1), min(i+3, m-1)
		tensor.ConvTile(t,
			o.w[i*k:i*k+k], o.w[r1*k:r1*k+k], o.w[r2*k:r2*k+k], o.w[r3*k:r3*k+k],
			o.base, o.off,
			o.bias[i], o.bias[r1], o.bias[r2], o.bias[r3], o.relu)
		for r := 0; r < tensor.TileRows && i+r < m; r++ {
			emitRow(o, i+r, t[r*w:r*w+w])
		}
	}
}

// emitRow stores output channel c from its finished virtual-column row:
// output element (oy, ox) is row[oy·vw+ox]. Pooled convs fold the row into
// the 2×2 max-pool in place; the others copy the ow valid columns out of
// every vw.
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

// convSparse mirrors tensor's row-skipping sparse kernel with the fused
// epilogue: per-channel accumulation one coefficient at a time, zeros
// skipped.
func convSparse(o *op) {
	k, w := len(o.off), o.width
	d := o.tile[:w]
	for i := 0; i < o.outC; i++ {
		for j := range d {
			d[j] = 0
		}
		for p, av := range o.w[i*k : i*k+k] {
			if av == 0 {
				continue
			}
			brow := o.base[o.off[p] : o.off[p]+w]
			for j, bv := range brow {
				d[j] += av * bv
			}
		}
		tensor.BiasReLURow(d, o.bias[i], o.relu)
		emitRow(o, i, d)
	}
}

// poolRow 2×2-max-pools one channel row: src is one channel's activation
// viewed as (h, w) with w = srcW, dst is (ph, pw). Comparison order (top
// left, top right, bottom left, bottom right; strictly greater replaces)
// matches nn.MaxPool2 so NaN propagation is identical too. Odd trailing
// rows/columns are dropped, as in the layered pool.
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

// denseRun executes one fused dense(+bias)(+ReLU) op. Each dot product
// accumulates in tensor.MatVecInto's sequential order; bias lands after
// the full dot, exactly as the layered Dense.Forward + ReLU pair computes.
// Four output rows advance together so their four accumulator chains
// overlap in the FP pipeline — each chain is still strictly sequential per
// element, so every output bit is unchanged; only the chains' relative
// scheduling differs, and they never interact.
func denseRun(o *op, x []float64) {
	w, bias, out := o.w, o.bias, o.out
	k := o.inLen
	x = x[:k]
	i := 0
	for ; i+3 < o.outLen; i += 4 {
		r0 := w[i*k : i*k+k]
		r1 := w[(i+1)*k : (i+1)*k+k]
		r2 := w[(i+2)*k : (i+2)*k+k]
		r3 := w[(i+3)*k : (i+3)*k+k]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		s0 += bias[i]
		s1 += bias[i+1]
		s2 += bias[i+2]
		s3 += bias[i+3]
		if o.relu {
			s0, s1, s2, s3 = rectify(s0), rectify(s1), rectify(s2), rectify(s3)
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < o.outLen; i++ {
		row := w[i*k : i*k+k]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		s += bias[i]
		if o.relu {
			s = rectify(s)
		}
		out[i] = s
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
// conv or dense producer, e.g. following a pool).
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
func poolRun(o *op, x []float64) {
	hw := o.inH * o.inW
	phw := o.ph * o.pw
	for c := 0; c < o.inC; c++ {
		poolRow(o.out[c*phw:(c+1)*phw], x[c*hw:(c+1)*hw], o.inW, o.ph, o.pw)
	}
}
