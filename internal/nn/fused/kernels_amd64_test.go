package fused

import (
	"math"
	"math/rand"
	"testing"
)

// tileSpecials are the operand values most likely to expose a difference
// in operation order, rounding or rectification between the two tile
// kernel bodies: signed zeros, infinities, subnormals and values whose
// products overflow.
var tileSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
	1e308, -1e308,
}

// TestConvTileAVX2MatchesGo pins the assembly tile kernel bit-for-bit
// against the pure-Go tile body, block4, (which the parity tests pin against the
// layered path) over awkward coefficient counts and widths, 1–4 live
// channels (dead lanes alias the last live row, as convDense does), ReLU
// on and off, and four operand regimes: plain normals, dense and sparse
// scatterings of special values, and values small enough that every
// product is subnormal. NaN results are compared by class only: the two
// bodies may produce different NaN payloads and signs.
func TestConvTileAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(71))
	regimes := []struct {
		name string
		val  func(k int) float64
	}{
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
	var seen struct{ nan, inf, zero, sub int }
	for _, rg := range regimes {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 144, 150, 288} {
			for _, w := range []int{4, 8, 12, 36, 48, 168} {
				span := 3 * w
				off := make([]int, k)
				for p := range off {
					off[p] = rng.Intn(span + 1)
				}
				base := make([]float64, span+w)
				for i := range base {
					base[i] = rg.val(k)
				}
				var rows [blockRows][]float64
				var bias [blockRows]float64
				for r := range rows {
					rows[r] = make([]float64, k)
					for p := range rows[r] {
						rows[r][p] = rg.val(k)
					}
					bias[r] = rg.val(k)
				}
				for live := 1; live <= blockRows; live++ {
					var a [blockRows][]float64
					var b [blockRows]float64
					for r := range a {
						a[r], b[r] = rows[min(r, live-1)], bias[min(r, live-1)]
					}
					for _, relu := range []bool{false, true} {
						got := make([]float64, blockRows*w)
						want := make([]float64, blockRows*w)
						r := int64(0)
						if relu {
							r = 1
						}
						convTileAVX2(&got[0], &a[0][0], &a[1][0], &a[2][0], &a[3][0], &base[0], &off[0],
							k, w, b[0], b[1], b[2], b[3], r)
						block4(want, a[0], a[1], a[2], a[3], base, off, b[0], b[1], b[2], b[3], relu)
						for i, g := range got {
							wv := want[i]
							switch {
							case math.IsNaN(wv):
								seen.nan++
								if math.IsNaN(g) {
									continue
								}
							case math.IsInf(wv, 0):
								seen.inf++
							case wv == 0:
								seen.zero++
							case math.Abs(wv) < 2.2250738585072014e-308:
								seen.sub++
							}
							if math.Float64bits(g) != math.Float64bits(wv) {
								t.Fatalf("%s k=%d width=%d live=%d relu=%v row=%d col=%d: asm %x (%g) != go %x (%g)",
									rg.name, k, w, live, relu, i/w, i%w,
									math.Float64bits(g), g, math.Float64bits(wv), wv)
							}
						}
					}
				}
			}
		}
	}
	if seen.nan == 0 || seen.inf == 0 || seen.zero == 0 || seen.sub == 0 {
		t.Fatalf("operands exercised too few result classes: %+v", seen)
	}
}

// TestGenericKernelParity runs the parity suites through the pure-Go tile
// body, which an AVX2 host would otherwise never execute.
func TestGenericKernelParity(t *testing.T) {
	if !useAVX2 {
		t.Skip("the parity tests already run the generic kernels on this host")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	t.Run("Table1Stages", TestParityTable1Stages)
	t.Run("PaperNet", TestParityPaperNet)
	t.Run("OddGeometries", TestParityOddGeometries)
	t.Run("SparseWeights", TestParitySparseWeights)
}
