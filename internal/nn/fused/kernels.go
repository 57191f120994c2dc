package fused

import "hotspot/internal/tensor"

// blockRows is the register-blocking factor of the conv kernels: four
// output channels advance together through the coefficient rows, so each
// loaded element of a coefficient row feeds four accumulators. The paper's
// Table 1 conv stages have outC ∈ {16, 32}, both multiples of four; for
// other channel counts the last tile's unused lanes recompute the last
// live channel and are never emitted.
const blockRows = 4

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
// at a time into the shared tile buffer, with bias and ReLU folded into
// the kernel epilogue; each finished channel is emitted at once (pooled
// convs fold it into the 2×2 max-pool), so the pre-pool activation never
// exists as a full tensor.
func convDense(o *op) {
	m, k, w := o.outC, len(o.off), o.width
	t := o.tile[:blockRows*w]
	for i := 0; i < m; i += blockRows {
		r1, r2, r3 := min(i+1, m-1), min(i+2, m-1), min(i+3, m-1)
		convTile(t,
			o.w[i*k:i*k+k], o.w[r1*k:r1*k+k], o.w[r2*k:r2*k+k], o.w[r3*k:r3*k+k],
			o.base, o.off,
			o.bias[i], o.bias[r1], o.bias[r2], o.bias[r3], o.relu)
		for r := 0; r < blockRows && i+r < m; r++ {
			emitRow(o, i+r, t[r*w:r*w+w])
		}
	}
}

// convTile computes one 4-channel tile: row r of t (len(t)/4 virtual
// columns) is ar · B + br, rectified when relu is set, where coefficient
// row p of B is base[off[p]:]. It runs the AVX2 kernel where the host has
// it and the order-identical Go body elsewhere.
func convTile(t, a0, a1, a2, a3, base []float64, off []int, b0, b1, b2, b3 float64, relu bool) {
	if useAVX2 {
		r := int64(0)
		if relu {
			r = 1
		}
		convTileAVX2(&t[0], &a0[0], &a1[0], &a2[0], &a3[0], &base[0], &off[0],
			len(off), len(t)/blockRows, b0, b1, b2, b3, r)
		return
	}
	block4(t, a0, a1, a2, a3, base, off, b0, b1, b2, b3, relu)
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
		biasReLURow(d, o.bias[i], o.relu)
		emitRow(o, i, d)
	}
}

// block4 is the pure-Go body of the tile kernel, with convTile's
// contract. The coefficient dimension advances in the same 4-wide groups,
// with the same per-element addition grouping, as tensor.matmulInto's
// dense kernel — that grouping is load-bearing for the bit-for-bit parity
// contract — and every loaded coefficient element feeds four accumulating
// rows instead of one.
func block4(t, a0, a1, a2, a3, base []float64, off []int, b0, b1, b2, b3 float64, relu bool) {
	w := len(t) / blockRows
	d0, d1, d2, d3 := t[:w], t[w:2*w], t[2*w:3*w], t[3*w:4*w]
	for j := range d0 {
		d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
	}
	k := len(off)
	p := 0
	for ; p+3 < k; p += 4 {
		br0 := base[off[p] : off[p]+w]
		br1 := base[off[p+1] : off[p+1]+w]
		br2 := base[off[p+2] : off[p+2]+w]
		br3 := base[off[p+3] : off[p+3]+w]
		a00, a01, a02, a03 := a0[p], a0[p+1], a0[p+2], a0[p+3]
		a10, a11, a12, a13 := a1[p], a1[p+1], a1[p+2], a1[p+3]
		a20, a21, a22, a23 := a2[p], a2[p+1], a2[p+2], a2[p+3]
		a30, a31, a32, a33 := a3[p], a3[p+1], a3[p+2], a3[p+3]
		for j := range d0 {
			bv0, bv1, bv2, bv3 := br0[j], br1[j], br2[j], br3[j]
			d0[j] += a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
			d1[j] += a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			d2[j] += a20*bv0 + a21*bv1 + a22*bv2 + a23*bv3
			d3[j] += a30*bv0 + a31*bv1 + a32*bv2 + a33*bv3
		}
	}
	for ; p < k; p++ {
		brow := base[off[p] : off[p]+w]
		av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
		for j, bv := range brow {
			d0[j] += av0 * bv
			d1[j] += av1 * bv
			d2[j] += av2 * bv
			d3[j] += av3 * bv
		}
	}
	biasReLURow(d0, b0, relu)
	biasReLURow(d1, b1, relu)
	biasReLURow(d2, b2, relu)
	biasReLURow(d3, b3, relu)
}

// biasReLURow adds the channel bias to a finished row and, when relu is
// set, rectifies in the same pass. The value is (full dot product) + bias
// — the order the layered path produces — and the rectifier uses the same
// strict v > 0 comparison as nn.ReLU.
func biasReLURow(d []float64, bias float64, relu bool) {
	if relu {
		for j, v := range d {
			v += bias
			if v > 0 {
				d[j] = v
			} else {
				d[j] = 0
			}
		}
		return
	}
	for j := range d {
		d[j] += bias
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
