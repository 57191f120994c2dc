package tensor

import "math"

// TileRows is the register-blocking factor of the tile kernels: four
// output rows advance together through a product's coefficient rows, so
// each loaded element of a coefficient row feeds four accumulators. When a
// product has fewer rows left, the last tile's unused rows recompute the
// last live row and are never emitted.
const TileRows = 4

// TileWidth returns the number of columns the tile kernels compute for n
// output columns: n rounded up to their 4-column step. Every row a kernel
// reads therefore needs TileWidth(n) − n readable slots past its n live
// ones; the results in those columns are never emitted.
func TileWidth(n int) int { return (n + 3) &^ 3 }

// kernelBody is one body of the tile kernels. The amd64 probe reports the
// best one the host runs, and each body implies the ones before it: an
// AVX-512 host runs the AVX2 bodies too.
type kernelBody uint8

const (
	kernelGeneric kernelBody = iota // block4 and dot4, pure Go
	kernelAVX2                      // convTileAVX2 and dotTileAVX2
	kernelAVX512                    // convTileAVX512 and dotTileAVX512
)

// kernelNames are the bodies' TileKernel names, indexed by kernelBody.
var kernelNames = [...]string{"generic", "avx2-4x4", "avx512-4x16"}

// kernel is the body the tile kernels run: the probed one, except while
// WithKernel runs a test on another.
var kernel = probed

// TileKernel names the tile kernel body this host runs: "avx512-4x16" for
// the AVX-512 assembly kernels (4 rows × 16 columns or lanes per step, then
// at most one 8-wide and one 4-wide step), "avx2-4x4" for the AVX2 assembly
// kernels (4 rows × 4 columns or lanes) and "generic" for the pure-Go
// bodies. All produce bit-identical results.
func TileKernel() string { return kernelNames[kernel] }

// Kernels lists, by TileKernel name, every tile kernel body this host can
// run: "generic" first and the probed body last.
func Kernels() []string { return append([]string(nil), kernelNames[:probed+1]...) }

// WithKernel runs f with the tile kernels on the named body, one of
// Kernels(), then restores the probed choice. Parity tests use it to cover
// the bodies a host would otherwise never run; no tile kernel may run on
// another goroutine meanwhile. It panics on a name this host cannot run.
func WithKernel(name string, f func()) {
	for b, n := range kernelNames[:probed+1] {
		if n == name {
			saved := kernel
			kernel = kernelBody(b)
			defer func() { kernel = saved }()
			f()
			return
		}
	}
	panic("tensor: no tile kernel body " + name + " on this host")
}

// ConvTile computes one 4-row product tile: row r of t (len(t)/4 virtual
// columns, a positive multiple of 4) is ar · B + br, rectified when relu is
// set, where coefficient row p of B is base[off[p]:] and base holds
// max(off) + len(t)/4 elements. Each element starts at +0 and gains one
// group sum ar[p]·B[p] + ar[p+1]·B[p+1] + ar[p+2]·B[p+2] + ar[p+3]·B[p+3]
// per four coefficients, then the remaining products one at a time, then
// br: the order of an ikj product with its coefficient loop 4-way
// unrolled, which the tensor tests keep as the reference. It runs the
// host's assembly body where it has one and the order-identical Go body
// elsewhere.
//
//hsd:noalloc
func ConvTile(t, a0, a1, a2, a3, base []float64, off []int, b0, b1, b2, b3 float64, relu bool) {
	if kernel == kernelGeneric {
		block4(t, a0, a1, a2, a3, base, off, b0, b1, b2, b3, relu)
		return
	}
	r := int64(0)
	if relu {
		r = 1
	}
	if kernel == kernelAVX512 {
		convTileAVX512(&t[0], &a0[0], &a1[0], &a2[0], &a3[0], &base[0], &off[0],
			len(off), len(t)/TileRows, b0, b1, b2, b3, r)
		return
	}
	convTileAVX2(&t[0], &a0[0], &a1[0], &a2[0], &a3[0], &base[0], &off[0],
		len(off), len(t)/TileRows, b0, b1, b2, b3, r)
}

// block4 is the pure-Go body of the tile kernel, with ConvTile's contract.
// The coefficient dimension advances in ConvTile's 4-wide groups, with its
// per-element addition grouping — that grouping is load-bearing for the
// bit-for-bit parity contract — and every loaded coefficient element feeds
// four accumulating rows instead of one.
func block4(t, a0, a1, a2, a3, base []float64, off []int, b0, b1, b2, b3 float64, relu bool) {
	w := len(t) / TileRows
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
			d0[j] += float64(a00*bv0) + float64(a01*bv1) + float64(a02*bv2) + float64(a03*bv3)
			d1[j] += float64(a10*bv0) + float64(a11*bv1) + float64(a12*bv2) + float64(a13*bv3)
			d2[j] += float64(a20*bv0) + float64(a21*bv1) + float64(a22*bv2) + float64(a23*bv3)
			d3[j] += float64(a30*bv0) + float64(a31*bv1) + float64(a32*bv2) + float64(a33*bv3)
		}
	}
	for ; p < k; p++ {
		brow := base[off[p] : off[p]+w]
		av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
		for j, bv := range brow {
			d0[j] += float64(av0 * bv)
			d1[j] += float64(av1 * bv)
			d2[j] += float64(av2 * bv)
			d3[j] += float64(av3 * bv)
		}
	}
	biasReLURow(d0, b0, relu)
	biasReLURow(d1, b1, relu)
	biasReLURow(d2, b2, relu)
	biasReLURow(d3, b3, relu)
}

// biasReLURow adds bias to a finished product row and, when relu is set,
// rectifies in the same pass. The value is (full dot product) + bias, and
// the rectifier uses the same strict v > 0 comparison as nn.ReLU.
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

// DotTile computes up to four rows of lane-wide dot products over
// n = len(aoff) ≥ 1 terms:
//
//	out[r·stride + c] = Σ_p aT[aoff[p] + c] · br[p]   for r < rows, c < lanes,
//
// each sum started at +0 and accumulated in p order with a separate
// multiply and add per term. It stores rows rows (1…4) of lanes lanes
// (≥ 1) and writes nothing else of out. The lanes are computed four at a
// time, so aT must hold max(aoff) + TileWidth(lanes) elements; the lanes
// past lanes and the rows past rows are computed and never stored, and a
// caller gives a dead row any live row's b. b0…b3 each hold at least n
// elements. The b rows, out's stored extent and aT's extent at the last
// offset are checked before the kernel runs, so a short slice panics
// instead of being read or written past its end. Every caller's table
// ascends, so that check bounds all of its offsets; a table that does not
// is the caller's to bound. It runs the host's assembly body where it has
// one and the order-identical Go body, dot4, elsewhere.
//
//hsd:noalloc
func DotTile(out []float64, stride, rows, lanes int, aT []float64, aoff []int, b0, b1, b2, b3 []float64) {
	n := len(aoff)
	_, _, _, _ = b0[n-1], b1[n-1], b2[n-1], b3[n-1]
	_, _ = out[(rows-1)*stride+lanes-1], aT[aoff[n-1]+TileWidth(lanes)-1]
	switch kernel {
	case kernelAVX512:
		dotTileAVX512(&out[0], stride, rows, lanes, &aT[0], &aoff[0], n, &b0[0], &b1[0], &b2[0], &b3[0])
	case kernelAVX2:
		dotTileAVX2(&out[0], stride, rows, lanes, &aT[0], &aoff[0], n, &b0[0], &b1[0], &b2[0], &b3[0])
	default:
		dot4(out, stride, rows, lanes, aT, aoff, b0, b1, b2, b3)
	}
}

// dot4 is the pure-Go body of the dot tile, with DotTile's contract: two
// rows at a time, their lanes four at a time, so eight sums advance
// together per term, and each sum is MatVecInto's sequential chain. A
// dead second row is computed from the b it is given and not stored.
func dot4(out []float64, stride, rows, lanes int, aT []float64, aoff []int, b0, b1, b2, b3 []float64) {
	n := len(aoff)
	for r := 0; r < rows; r += 2 {
		ba, bb := b0[:n], b1[:n]
		if r == 2 {
			ba, bb = b2[:n], b3[:n]
		}
		oa := out[r*stride : r*stride+lanes]
		for c := 0; c < lanes; c += 4 {
			a0, a1, a2, a3, s0, s1, s2, s3 := dotLanes(aT[c:], aoff, ba, bb)
			storeLanes(oa[c:], a0, a1, a2, a3)
			if r+1 < rows {
				storeLanes(out[(r+1)*stride+c:(r+1)*stride+lanes], s0, s1, s2, s3)
			}
		}
	}
}

// dotLanes returns the sums Σ_p aT[aoff[p]+l]·ba[p] and Σ_p
// aT[aoff[p]+l]·bb[p] for l < 4, advanced together per term, each from +0
// in p order. It is not inlined: inside dot4's loops the loop counter
// spills to the stack, and its store and reload then lengthen every
// term's latency.
//
//go:noinline
func dotLanes(aT []float64, aoff []int, ba, bb []float64) (a0, a1, a2, a3, s0, s1, s2, s3 float64) {
	bb = bb[:len(ba)]
	for p, off := range aoff {
		a := aT[off : off+4]
		va, vb := ba[p], bb[p]
		a0 += float64(a[0] * va)
		a1 += float64(a[1] * va)
		a2 += float64(a[2] * va)
		a3 += float64(a[3] * va)
		s0 += float64(a[0] * vb)
		s1 += float64(a[1] * vb)
		s2 += float64(a[2] * vb)
		s3 += float64(a[3] * vb)
	}
	return
}

// storeLanes stores the first min(4, len(o)) of s0…s3 into o.
func storeLanes(o []float64, s0, s1, s2, s3 float64) {
	if len(o) >= 4 {
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		return
	}
	s := [4]float64{s0, s1, s2, s3}
	copy(o, s[:])
}

// MatMulTiles sets out (m×n) to a·b, adding bias[i] to row i when bias is
// non-nil, for a (m×k) and b (k×n) with m, k, n ≥ 1, on 4-row tiles in
// ConvTile's per-element order. Without a bias the tile epilogue adds −0,
// the additive identity (x + −0 = x for every x, −0 included), so each
// stored value is the bare product.
//
// The caller owns the scratch: off holds p·n for p < k, tile holds
// TileRows·TileWidth(n) elements, and b holds (k−1)·n + TileWidth(n), so
// the last row's rounded-up reads stay inside it.
//
//hsd:hotpath
//hsd:noalloc
func MatMulTiles(out, a, b, bias []float64, off []int, tile []float64, m, k, n int) {
	w := TileWidth(n)
	t := tile[:TileRows*w]
	b = b[:(k-1)*n+w]
	off = off[:k]
	nz := math.Copysign(0, -1)
	b0, b1, b2, b3 := nz, nz, nz, nz
	for i := 0; i < m; i += TileRows {
		r1, r2, r3 := min(i+1, m-1), min(i+2, m-1), min(i+3, m-1)
		if bias != nil {
			b0, b1, b2, b3 = bias[i], bias[r1], bias[r2], bias[r3]
		}
		ConvTile(t, a[i*k:i*k+k], a[r1*k:r1*k+k], a[r2*k:r2*k+k], a[r3*k:r3*k+k], b, off,
			b0, b1, b2, b3, false)
		for r := 0; r < TileRows && i+r < m; r++ {
			copy(out[(i+r)*n:(i+r)*n+n], t[r*w:r*w+n])
		}
	}
}

// MatMulBTAddTiles adds a·bᵀ into out (m×k) for a (m×n) and b (k×n), with
// MatMulBTAddInto's per-element arithmetic: out[i][j] gains one sum
// s = +0; s += a[i][p]·b[j][p] for p ascending. aT is scratch of
// (n+TileRows)·TileWidth(m) elements: this call fills its first n rows
// with aᵀ, so that lane i of row p is a[i][p], and the dot tile stores
// four b rows' sums at a time, one lane per row of a, into the last
// TileRows rows, from which they are added into out's columns. aoff holds
// p·TileWidth(m) for p < n. Each dot tile advances 4·TileWidth(m)
// independent sums instead of one latency-bound chain.
//
//hsd:hotpath
//hsd:noalloc
func MatMulBTAddTiles(out, a, b, aT []float64, aoff []int, m, n, k int) {
	matMulBTTiles(out, a, b, aT, aoff, m, n, k, false)
}

// MatMulBTTiles is MatMulBTAddTiles storing each sum into out instead of
// adding it. A sum starts at +0 and so can never be −0 (+0 + −0 = +0), and
// +0 + s = s for every other s, so the stored value is bit for bit what
// MatMulBTAddTiles adds into a zeroed out — without the zeroing.
//
//hsd:hotpath
//hsd:noalloc
func MatMulBTTiles(out, a, b, aT []float64, aoff []int, m, n, k int) {
	matMulBTTiles(out, a, b, aT, aoff, m, n, k, true)
}

//hsd:noalloc
func matMulBTTiles(out, a, b, aT []float64, aoff []int, m, n, k int, store bool) {
	ld := TileWidth(m)
	t := aT[n*ld : (n+TileRows)*ld]
	aT, aoff = aT[:n*ld], aoff[:n]
	for i := 0; i < m; i++ {
		for p, v := range a[i*n : i*n+n] {
			aT[p*ld+i] = v
		}
	}
	for j := 0; j < k; j += TileRows {
		rows := min(TileRows, k-j)
		r1, r2, r3 := j+min(1, rows-1), j+min(2, rows-1), j+min(3, rows-1)
		DotTile(t, ld, rows, ld, aT, aoff, b[j*n:j*n+n], b[r1*n:r1*n+n], b[r2*n:r2*n+n], b[r3*n:r3*n+n])
		if rows < TileRows {
			for i := 0; i < m; i++ {
				for r := range out[i*k+j : i*k+j+rows] {
					if store {
						out[i*k+j+r] = t[r*ld+i]
					} else {
						out[i*k+j+r] += t[r*ld+i]
					}
				}
			}
			continue
		}
		// Row r of a full tile is column j+r of out; lane i is out's row i.
		t0 := t[:m]
		t1, t2, t3 := t[ld:][:len(t0)], t[2*ld:][:len(t0)], t[3*ld:][:len(t0)]
		if store {
			for i, v := range t0 {
				o := out[i*k+j : i*k+j+4]
				o[0], o[1], o[2], o[3] = v, t1[i], t2[i], t3[i]
			}
			continue
		}
		for i, v := range t0 {
			o := out[i*k+j : i*k+j+4]
			o[0] += v
			o[1] += t1[i]
			o[2] += t2[i]
			o[3] += t3[i]
		}
	}
}
