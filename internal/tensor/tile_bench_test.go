package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkConvTile measures every tile kernel body the host has on the
// four Table 1 conv tiles — k coefficients (inC·3·3) over one channel run
// of virtual columns, 168 on the 12×12 convs and 48 on the 6×6 ones — and
// on the 4-, 8- and 16-column ring spans at k = 288 that conv1-1's grid
// path runs. Operands sit where the engine puts them: coefficient row p of
// a zero-bordered hp×hp plane per input channel. Each reports GFLOP/s,
// 2·TileRows·k·width floating-point operations per call; compare bodies
// with -cpu 1 and alternating runs, one body per run.
func BenchmarkConvTile(b *testing.B) {
	shapes := []struct {
		name     string
		k, w, hp int
	}{
		{"conv1-1", 288, 168, 14},
		{"conv1-2", 144, 168, 14},
		{"conv2-1", 144, 48, 8},
		{"conv2-2", 288, 48, 8},
		{"span4", 288, 4, 14},
		{"span8", 288, 8, 14},
		{"span16", 288, 16, 14},
	}
	for _, name := range Kernels() {
		for _, s := range shapes {
			b.Run(name+"/"+s.name, func(b *testing.B) {
				WithKernel(name, func() { benchConvTile(b, s.k, s.w, s.hp) })
			})
		}
	}
}

// benchConvTile times ConvTile with ReLU on one k×w tile whose coefficient
// rows are laid out as a 3×3 conv's over hp×hp planes.
func benchConvTile(b *testing.B, k, w, hp int) {
	rng := rand.New(rand.NewSource(5))
	off := make([]int, k)
	for p := range off {
		ch, ky, kx := p/9, p/3%3, p%3
		off[p] = ch*hp*hp + ky*hp + kx
	}
	base := make([]float64, off[k-1]+w)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	var a [TileRows][]float64
	for r := range a {
		a[r] = make([]float64, k)
		for p := range a[r] {
			a[r][p] = rng.NormFloat64()
		}
	}
	t := make([]float64, TileRows*w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvTile(t, a[0], a[1], a[2], a[3], base, off, 0.1, 0.2, 0.3, 0.4, true)
	}
	b.ReportMetric(float64(2*TileRows*k*w)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkDotTile measures every tile kernel body the host has on the dot
// tile's production shapes: the four Table 1 conv weight gradients,
// outC × oh·ow × inC·9, each one MatMulBTTiles with its transpose and its
// scatter into dW, and the block DCT's two passes over a 25×25 block with
// an 8×8 corner (seven 8-lane row tiles over 25 terms, the last with one
// live row, then two 8-lane column tiles over 25 terms). Each reports
// GFLOP/s of its live sums, two operations per term; compare bodies with
// -cpu 1 and alternating runs, one body per run.
func BenchmarkDotTile(b *testing.B) {
	grads := []struct {
		name    string
		m, n, k int
	}{
		{"conv1-1", 16, 144, 288},
		{"conv1-2", 16, 144, 144},
		{"conv2-1", 32, 36, 144},
		{"conv2-2", 32, 36, 288},
	}
	for _, name := range Kernels() {
		for _, g := range grads {
			b.Run(name+"/"+g.name, func(b *testing.B) {
				WithKernel(name, func() { benchWeightGrad(b, g.m, g.n, g.k) })
			})
		}
		b.Run(name+"/dct-rows", func(b *testing.B) {
			WithKernel(name, func() { benchDCTPass(b, 25, 25, 8, true) })
		})
		b.Run(name+"/dct-cols", func(b *testing.B) {
			WithKernel(name, func() { benchDCTPass(b, 25, 25, 8, false) })
		})
	}
}

// benchWeightGrad times the store form of the conv weight gradient,
// dW = g·colsᵀ for g (m×n) and cols (k×n).
func benchWeightGrad(b *testing.B, m, n, k int) {
	rng := rand.New(rand.NewSource(6))
	g, cols := make([]float64, m*n), make([]float64, k*n)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	for i := range cols {
		cols[i] = rng.NormFloat64()
	}
	out := make([]float64, m*k)
	aT, aoff := make([]float64, (n+TileRows)*TileWidth(m)), rowOffsets(n, TileWidth(m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulBTTiles(out, g, cols, aT, aoff, m, n, k)
	}
	b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchDCTPass times one pass of the truncated DCT of an h×w block with a
// kw-wide corner, laid out as dct.Truncated.Forward lays it out: the row
// pass dots every block row with the kw basis columns (aT of row stride
// TileWidth(kw)), the column pass dots the kw corner rows of the basis
// with tmp's h rows.
func benchDCTPass(b *testing.B, h, w, kw int, rowPass bool) {
	rng := rand.New(rand.NewSource(7))
	ld := TileWidth(kw)
	fill := func(n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		return d
	}
	src, basisT, ch, tmp := fill(h*w), fill(w*ld), fill(h*h), fill(h*ld)
	rowOff, colOff := rowOffsets(w, ld), rowOffsets(h, ld)
	dst := make([]float64, kw*kw)
	flops := 2 * kw * kw * h
	if rowPass {
		flops = 2 * h * kw * w
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rowPass {
			for k := 0; k < h; k += TileRows {
				n := min(TileRows, h-k)
				r1, r2, r3 := (k+min(1, n-1))*w, (k+min(2, n-1))*w, (k+min(3, n-1))*w
				DotTile(tmp[k*ld:], ld, n, ld, basisT, rowOff,
					src[k*w:k*w+w], src[r1:r1+w], src[r2:r2+w], src[r3:r3+w])
			}
			continue
		}
		for u := 0; u < kw; u += TileRows {
			n := min(TileRows, kw-u)
			r1, r2, r3 := u+min(1, n-1), u+min(2, n-1), u+min(3, n-1)
			DotTile(dst[u*kw:], kw, n, kw, tmp, colOff,
				ch[u*h:u*h+h], ch[r1*h:r1*h+h], ch[r2*h:r2*h+h], ch[r3*h:r3*h+h])
		}
	}
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
