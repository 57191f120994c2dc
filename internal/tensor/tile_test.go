package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// tileSpecials are the operand values most likely to expose a difference
// in operation order, rounding or rectification between the bodies of
// a tile kernel: signed zeros, infinities, subnormals and values whose
// products overflow.
var tileSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
	1e308, -1e308,
}

// operandRegime draws kernel operands; k is the reduction length, which
// the sparse regime uses to scatter about one special value per sum.
type operandRegime struct {
	name string
	val  func(k int) float64
}

// tileRegimes are the four operand regimes the asm-vs-Go tests use: plain
// normals, dense and sparse scatterings of special values, and values
// small enough that every product is subnormal.
func tileRegimes(rng *rand.Rand) []operandRegime {
	return []operandRegime{
		{"normal", func(int) float64 { return rng.NormFloat64() }},
		{"dense-specials", func(int) float64 {
			if rng.Intn(8) == 0 {
				return tileSpecials[rng.Intn(len(tileSpecials))]
			}
			return rng.NormFloat64()
		}},
		{"sparse-specials", func(k int) float64 {
			if rng.Intn(4*k) == 0 {
				return tileSpecials[rng.Intn(len(tileSpecials))]
			}
			return rng.NormFloat64()
		}},
		{"subnormal-products", func(int) float64 { return rng.NormFloat64() * 1e-160 }},
	}
}

// resultClasses tallies the result classes a comparison saw, so a test can
// assert its operands reached every one of them.
type resultClasses struct{ nan, inf, zero, sub int }

// match reports whether the asm result got equals the Go result want bit
// for bit. NaN results are compared by class only: the bodies may
// produce different NaN payloads and signs.
func (c *resultClasses) match(got, want float64) bool {
	switch {
	case math.IsNaN(want):
		c.nan++
		if math.IsNaN(got) {
			return true
		}
	case math.IsInf(want, 0):
		c.inf++
	case want == 0:
		c.zero++
	case math.Abs(want) < 2.2250738585072014e-308:
		c.sub++
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// complete fails the test unless every result class occurred.
func (c *resultClasses) complete(t *testing.T) {
	t.Helper()
	if c.nan == 0 || c.inf == 0 || c.zero == 0 || c.sub == 0 {
		t.Fatalf("operands exercised too few result classes: %+v", *c)
	}
}

// kernelBodies runs f once on every tile kernel body the host has.
func kernelBodies(t *testing.T, f func(t *testing.T)) {
	for _, name := range Kernels() {
		WithKernel(name, func() { t.Run(name, f) })
	}
}

// tileOperand returns a rows×cols operand from rg, with slack extra
// elements poisoned with NaN: a tile kernel reads them but must never let
// them reach a stored result. zeros > 0 zeroes that fraction of the
// elements: a mostly-zero operand, whose zero products the kernels add in
// the reference order like any other (0·∞ is NaN, and ±0 products keep
// their sign rules).
func tileOperand(rg operandRegime, rows, cols, slack int, zeros float64, rng *rand.Rand) []float64 {
	d := make([]float64, rows*cols+slack)
	for i := range d[:rows*cols] {
		if rng.Float64() >= zeros {
			d[i] = rg.val(cols)
		}
	}
	for i := rows * cols; i < len(d); i++ {
		d[i] = math.NaN()
	}
	return d
}

// nanScratch returns n scratch elements poisoned with NaN.
func nanScratch(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.NaN()
	}
	return d
}

// btScratch returns the NaN-poisoned aᵀ-and-tile scratch a weight-gradient
// product of m rows over n terms takes.
func btScratch(m, n int) []float64 { return nanScratch((n + TileRows) * TileWidth(m)) }

// rowOffsets returns the offset table p·n for p < k.
func rowOffsets(k, n int) []int {
	off := make([]int, k)
	for p := range off {
		off[p] = p * n
	}
	return off
}

// tileShapes are the product shapes the tile-path property tests cover:
// output channels outC ∈ {1…5, 16, 32}, spatial sizes oh·ow ∈ {1…9, 36,
// 144} and a few coefficient counts kk, including non-multiples of 4.
func tileShapes(yield func(outC, n, kk int)) {
	for _, outC := range []int{1, 2, 3, 4, 5, 16, 32} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 36, 144} {
			for _, kk := range []int{1, 7, 36} {
				yield(outC, n, kk)
			}
		}
	}
}

// TestMatMulTilesForwardMatchesReference pins the conv forward product on
// tiles, W·cols + b, against the ikj reference matmulBiasInto, for dense
// and for mostly-zero (80%) weights.
func TestMatMulTilesForwardMatchesReference(t *testing.T) {
	kernelBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(81))
		var seen resultClasses
		for _, rg := range tileRegimes(rng) {
			for _, zeros := range []float64{0, 0.8} {
				tileShapes(func(outC, n, kk int) {
					w := tileOperand(rg, outC, kk, 0, zeros, rng)
					cols := tileOperand(rg, kk, n, TileWidth(n)-n, 0, rng)
					bias := tileOperand(rg, 1, outC, 0, 0, rng)
					want := make([]float64, outC*n)
					matmulBiasInto(want, w, cols, bias, outC, kk, n)
					got := nanScratch(outC * n)
					MatMulTiles(got, w, cols, bias, rowOffsets(kk, n), nanScratch(TileRows*TileWidth(n)), outC, kk, n)
					for i := range want {
						if !seen.match(got[i], want[i]) {
							t.Fatalf("%s zeros=%v outC=%d n=%d kk=%d: element %d = %g, want %g",
								rg.name, zeros, outC, n, kk, i, got[i], want[i])
						}
					}
				})
			}
		}
		seen.complete(t)
	})
}

// TestMatMulTilesInputGradMatchesReference pins the conv input-gradient
// product on tiles, Wᵀ·g over a transposed copy of W with no bias, against
// MatMulATInto on W itself, for dense and for mostly-zero (80%) weights.
func TestMatMulTilesInputGradMatchesReference(t *testing.T) {
	kernelBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		var seen resultClasses
		for _, rg := range tileRegimes(rng) {
			for _, zeros := range []float64{0, 0.8} {
				tileShapes(func(outC, n, kk int) {
					w := tileOperand(rg, outC, kk, 0, zeros, rng)
					g := tileOperand(rg, outC, n, TileWidth(n)-n, 0, rng)
					want := New(kk, n)
					if err := MatMulATInto(want, MustFromSlice(w, outC, kk), MustFromSlice(g[:outC*n], outC, n)); err != nil {
						t.Fatal(err)
					}
					wT := make([]float64, kk*outC)
					for i := 0; i < outC; i++ {
						for p := 0; p < kk; p++ {
							wT[p*outC+i] = w[i*kk+p]
						}
					}
					got := nanScratch(kk * n)
					MatMulTiles(got, wT, g, nil, rowOffsets(outC, n), nanScratch(TileRows*TileWidth(n)), kk, outC, n)
					for i, wv := range want.data {
						if !seen.match(got[i], wv) {
							t.Fatalf("%s zeros=%v outC=%d n=%d kk=%d: element %d = %g, want %g",
								rg.name, zeros, outC, n, kk, i, got[i], wv)
						}
					}
				})
			}
		}
		seen.complete(t)
	})
}

// TestMatMulBTAddTilesMatchesReference pins the conv weight-gradient
// product on dot tiles, dW += g·colsᵀ, against MatMulBTAddInto, including
// accumulation into a nonzero dW.
func TestMatMulBTAddTilesMatchesReference(t *testing.T) {
	kernelBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(85))
		var seen resultClasses
		for _, rg := range tileRegimes(rng) {
			tileShapes(func(outC, n, kk int) {
				g := tileOperand(rg, outC, n, 0, 0, rng)
				cols := tileOperand(rg, kk, n, 0, 0, rng)
				dw := tileOperand(rg, outC, kk, 0, 0, rng)
				want := MustFromSlice(append([]float64(nil), dw...), outC, kk)
				if err := MatMulBTAddInto(want, MustFromSlice(g, outC, n), MustFromSlice(cols, kk, n)); err != nil {
					t.Fatal(err)
				}
				MatMulBTAddTiles(dw, g, cols, btScratch(outC, n), rowOffsets(n, TileWidth(outC)), outC, n, kk)
				for i, wv := range want.data {
					if !seen.match(dw[i], wv) {
						t.Fatalf("%s outC=%d n=%d kk=%d: element %d = %g, want %g",
							rg.name, outC, n, kk, i, dw[i], wv)
					}
				}
			})
		}
		seen.complete(t)
	})
}

// TestMatMulBTTilesStoresZeroedSums pins the store form of the weight
// gradient against the add form into a zeroed out, bit for bit and for
// every kernel body, in every operand regime — −0 operands and all-zero
// rows included: a dot sum starts at +0 and is never −0, so storing it
// equals adding it to +0.
func TestMatMulBTTilesStoresZeroedSums(t *testing.T) {
	kernelBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(86))
		for _, rg := range tileRegimes(rng) {
			for _, zeros := range []float64{0, 0.5, 1} {
				tileShapes(func(outC, n, kk int) {
					g := tileOperand(rg, outC, n, 0, zeros, rng)
					for i := range g {
						if g[i] == 0 && rng.Intn(2) == 0 {
							g[i] = math.Copysign(0, -1)
						}
					}
					cols := tileOperand(rg, kk, n, 0, 0, rng)
					want := make([]float64, outC*kk)
					aoff := rowOffsets(n, TileWidth(outC))
					MatMulBTAddTiles(want, g, cols, btScratch(outC, n), aoff, outC, n, kk)
					got := nanScratch(outC * kk)
					MatMulBTTiles(got, g, cols, btScratch(outC, n), aoff, outC, n, kk)
					for i, wv := range want {
						if math.Float64bits(got[i]) != math.Float64bits(wv) && !(math.IsNaN(wv) && math.IsNaN(got[i])) {
							t.Fatalf("%s zeros=%v outC=%d n=%d kk=%d: element %d stored %v, added %v",
								rg.name, zeros, outC, n, kk, i, got[i], wv)
						}
					}
				})
			}
		}
	})
}
