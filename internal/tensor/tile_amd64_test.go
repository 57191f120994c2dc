package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestConvTileAVX2MatchesGo pins the assembly tile kernel bit-for-bit
// against the pure-Go tile body, block4, (which the parity tests pin
// against matmulBiasInto) over awkward coefficient counts and widths, 1–4
// live rows (dead lanes alias the last live row, as the tile callers do),
// ReLU on and off, and every operand regime.
func TestConvTileAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(71))
	var seen resultClasses
	for _, rg := range tileRegimes(rng) {
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
				var rows [TileRows][]float64
				var bias [TileRows]float64
				for r := range rows {
					rows[r] = make([]float64, k)
					for p := range rows[r] {
						rows[r][p] = rg.val(k)
					}
					bias[r] = rg.val(k)
				}
				for live := 1; live <= TileRows; live++ {
					var a [TileRows][]float64
					var b [TileRows]float64
					for r := range a {
						a[r], b[r] = rows[min(r, live-1)], bias[min(r, live-1)]
					}
					for _, relu := range []bool{false, true} {
						got := make([]float64, TileRows*w)
						want := make([]float64, TileRows*w)
						r := int64(0)
						if relu {
							r = 1
						}
						convTileAVX2(&got[0], &a[0][0], &a[1][0], &a[2][0], &a[3][0], &base[0], &off[0],
							k, w, b[0], b[1], b[2], b[3], r)
						block4(want, a[0], a[1], a[2], a[3], base, off, b[0], b[1], b[2], b[3], relu)
						for i, g := range got {
							if !seen.match(g, want[i]) {
								t.Fatalf("%s k=%d width=%d live=%d relu=%v row=%d col=%d: asm %x (%g) != go %x (%g)",
									rg.name, k, w, live, relu, i/w, i%w,
									math.Float64bits(g), g, math.Float64bits(want[i]), want[i])
							}
						}
					}
				}
			}
		}
	}
	seen.complete(t)
}

// TestDotTileAVX2MatchesGo pins the assembly dot tile bit-for-bit against
// its pure-Go body, dot4, over reduction lengths from 1 to 144, row strides
// 4–32, 1–4 live rows (the others alias the last live row, as
// MatMulBTAddTiles arranges) and every operand regime.
func TestDotTileAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(73))
	var seen resultClasses
	for _, rg := range tileRegimes(rng) {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 36, 144} {
			for _, ld := range []int{4, 8, 32} {
				aT := make([]float64, n*ld)
				for i := range aT {
					aT[i] = rg.val(n)
				}
				var rows [TileRows][]float64
				for r := range rows {
					rows[r] = make([]float64, n)
					for p := range rows[r] {
						rows[r][p] = rg.val(n)
					}
				}
				for live := 1; live <= TileRows; live++ {
					var b [TileRows][]float64
					for r := range b {
						b[r] = rows[min(r, live-1)]
					}
					col := ld - 4 // the last lane group of the row
					var got, want [16]float64
					dotTileAVX2(&got, &aT[col], ld, &b[0][0], &b[1][0], &b[2][0], &b[3][0], n)
					dot4(&want, aT[col:], ld, b[0], b[1], b[2], b[3])
					for i, g := range got {
						if !seen.match(g, want[i]) {
							t.Fatalf("%s n=%d ld=%d live=%d row=%d lane=%d: asm %x (%g) != go %x (%g)",
								rg.name, n, ld, live, i/4, i%4,
								math.Float64bits(g), g, math.Float64bits(want[i]), want[i])
						}
					}
				}
			}
		}
	}
	seen.complete(t)
}

// TestTileKernelName pins the kernel name benchmark reports record, and
// that WithGenericKernels switches to the Go bodies and back.
func TestTileKernelName(t *testing.T) {
	want := "generic"
	if useAVX2 {
		want = "avx2-4x4"
	}
	if got := TileKernel(); got != want {
		t.Fatalf("TileKernel() = %q, want %q", got, want)
	}
	WithGenericKernels(func() {
		if got := TileKernel(); got != "generic" {
			t.Errorf("inside WithGenericKernels: %q", got)
		}
	})
	if got := TileKernel(); got != want {
		t.Fatalf("after WithGenericKernels: %q, want %q", got, want)
	}
}
