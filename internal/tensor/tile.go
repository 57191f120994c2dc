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
// AVX-512 host runs the AVX2 dot tile too.
type kernelBody uint8

const (
	kernelGeneric kernelBody = iota // block4 and dot4, pure Go
	kernelAVX2                      // convTileAVX2 and dotTileAVX2
	kernelAVX512                    // convTileAVX512 and dotTileAVX2
)

// kernelNames are the bodies' TileKernel names, indexed by kernelBody.
var kernelNames = [...]string{"generic", "avx2-4x4", "avx512-4x16"}

// kernel is the body the tile kernels run: the probed one, except while
// WithKernel runs a test on another.
var kernel = probed

// TileKernel names the tile kernel body this host runs: "avx512-4x16" for
// the AVX-512 conv tile (4 rows × 16 columns per step) with the AVX2 dot
// tile, "avx2-4x4" for the AVX2 assembly kernels (4 rows × 4 columns) and
// "generic" for the pure-Go bodies. All produce bit-identical results.
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
// max(off) + len(t)/4 elements. The per-element operation order is
// matmulBiasInto's dense kernel's, so a tile row equals that kernel's
// output row bit for bit. It runs the host's assembly body where it has
// one and the order-identical Go body elsewhere.
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
// The coefficient dimension advances in the same 4-wide groups, with the
// same per-element addition grouping, as matmulBiasInto's dense kernel —
// that grouping is load-bearing for the bit-for-bit parity contract — and
// every loaded coefficient element feeds four accumulating rows instead of
// one.
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
	BiasReLURow(d0, b0, relu)
	BiasReLURow(d1, b1, relu)
	BiasReLURow(d2, b2, relu)
	BiasReLURow(d3, b3, relu)
}

// BiasReLURow adds bias to a finished product row and, when relu is set,
// rectifies in the same pass. The value is (full dot product) + bias — the
// order matmulBiasInto produces — and the rectifier uses the same strict
// v > 0 comparison as nn.ReLU.
func BiasReLURow(d []float64, bias float64, relu bool) {
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

// DotTile computes a 4×4 block of dot products over n = len(b0) ≥ 1
// terms: s[4·r + c] = Σ_p aT[p·ld + c] · br[p], each sum started at +0 and
// accumulated in p order with a separate multiply and add per term. aT
// holds (n−1)·ld + 4 elements and b1..b3 at least n each; both are checked
// before the kernel runs, so a short slice panics instead of being read
// past its end. It runs the AVX2 kernel where the host has it (AVX-512
// hosts included) and the order-identical Go body elsewhere.
//
//hsd:noalloc
func DotTile(s *[16]float64, aT []float64, ld int, b0, b1, b2, b3 []float64) {
	n := len(b0)
	_, _, _, _ = aT[(n-1)*ld+3], b1[n-1], b2[n-1], b3[n-1]
	if kernel != kernelGeneric {
		dotTileAVX2(s, &aT[0], ld, &b0[0], &b1[0], &b2[0], &b3[0], n)
		return
	}
	dot4(s, aT, ld, b0, b1, b2, b3)
}

// dot4 is the pure-Go body of the dot tile, with DotTile's contract: each
// of the sixteen sums is MatMulBTAddInto's sequential chain, four of them
// advancing together per coefficient row.
func dot4(s *[16]float64, aT []float64, ld int, b0, b1, b2, b3 []float64) {
	for r, br := range [TileRows][]float64{b0, b1, b2, b3} {
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for p, bv := range br {
			a := aT[p*ld : p*ld+4]
			s0 += float64(a[0] * bv)
			s1 += float64(a[1] * bv)
			s2 += float64(a[2] * bv)
			s3 += float64(a[3] * bv)
		}
		s[4*r], s[4*r+1], s[4*r+2], s[4*r+3] = s0, s1, s2, s3
	}
}

// MatMulTiles sets out (m×n) to a·b, adding bias[i] to row i when bias is
// non-nil, for a (m×k) and b (k×n) with m, k, n ≥ 1. The result is
// bit-identical to matmulBiasInto's: the same density gate over a sends
// sparse coefficients to its row-skipping kernel, and dense ones run on
// 4-row tiles with its per-element order. Without a bias the tile epilogue
// adds −0, the additive identity (x + −0 = x for every x, −0 included), so
// each stored value is the bare product.
//
// The caller owns the scratch: off holds p·n for p < k, tile holds
// TileRows·TileWidth(n) elements, and b holds (k−1)·n + TileWidth(n), so
// the last row's rounded-up reads stay inside it.
//
//hsd:hotpath
//hsd:noalloc
func MatMulTiles(out, a, b, bias []float64, off []int, tile []float64, m, k, n int) {
	if sparseWorthwhile(a[:m*k]) {
		matmulBiasInto(out, a, b, bias, m, k, n)
		return
	}
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
// n·TileWidth(m) elements that this call fills with aᵀ, so one vector load
// reads four rows of a at one p; each dot tile then advances sixteen
// independent sums instead of one latency-bound chain.
//
//hsd:hotpath
//hsd:noalloc
func MatMulBTAddTiles(out, a, b, aT []float64, m, n, k int) {
	matMulBTTiles(out, a, b, aT, m, n, k, false)
}

// MatMulBTTiles is MatMulBTAddTiles storing each sum into out instead of
// adding it. A sum starts at +0 and so can never be −0 (+0 + −0 = +0), and
// +0 + s = s for every other s, so the stored value is bit for bit what
// MatMulBTAddTiles adds into a zeroed out — without the zeroing.
//
//hsd:hotpath
//hsd:noalloc
func MatMulBTTiles(out, a, b, aT []float64, m, n, k int) {
	matMulBTTiles(out, a, b, aT, m, n, k, true)
}

//hsd:noalloc
func matMulBTTiles(out, a, b, aT []float64, m, n, k int, store bool) {
	ld := TileWidth(m)
	aT = aT[:n*ld]
	for i := 0; i < m; i++ {
		for p, v := range a[i*n : i*n+n] {
			aT[p*ld+i] = v
		}
	}
	var s [16]float64
	for j := 0; j < k; j += TileRows {
		r1, r2, r3 := min(j+1, k-1), min(j+2, k-1), min(j+3, k-1)
		b0, b1, b2, b3 := b[j*n:j*n+n], b[r1*n:r1*n+n], b[r2*n:r2*n+n], b[r3*n:r3*n+n]
		for i := 0; i < m; i += TileRows {
			DotTile(&s, aT[i:], ld, b0, b1, b2, b3)
			for r := 0; r < TileRows && j+r < k; r++ {
				for c := 0; c < TileRows && i+c < m; c++ {
					if store {
						out[(i+c)*k+j+r] = s[4*r+c]
					} else {
						out[(i+c)*k+j+r] += s[4*r+c]
					}
				}
			}
		}
	}
}
