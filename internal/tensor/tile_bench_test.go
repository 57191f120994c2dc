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
