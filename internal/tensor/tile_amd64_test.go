package tensor

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestConvTileAVX2MatchesGo pins the AVX2 tile kernel bit-for-bit against
// the pure-Go tile body, block4, (which the parity tests pin against
// matmulBiasInto) over awkward coefficient counts and widths, 1–4 live
// rows (dead lanes alias the last live row, as the tile callers do), ReLU
// on and off, and every operand regime.
func TestConvTileAVX2MatchesGo(t *testing.T) {
	if probed < kernelAVX2 {
		t.Skip("no AVX2 on this host")
	}
	checkConvTile(t, 71, []int{4, 8, 12, 36, 48, 168}, convTileAVX2)
}

// TestConvTileAVX512MatchesGo pins the AVX-512 tile kernel the same way,
// over widths that leave every residue mod 16 to its 8- and 4-column
// steps: the Table 1 full tiles (48, 168) and the ring spans' widths among
// them.
func TestConvTileAVX512MatchesGo(t *testing.T) {
	if probed < kernelAVX512 {
		t.Skip("no AVX-512 on this host")
	}
	checkConvTile(t, 79, []int{4, 8, 12, 16, 20, 24, 28, 36, 44, 48, 68, 112, 168}, convTileAVX512)
}

// checkConvTile compares the assembly conv tile asm with block4 over
// coefficient counts 1–8, 144, 150 and 288 and the given widths. Each
// output tile is followed by NaN-poisoned slots that asm must not write.
func checkConvTile(t *testing.T, seed int64, widths []int,
	asm func(d, a0, a1, a2, a3, base *float64, off *int, k, width int, b0, b1, b2, b3 float64, relu int64)) {
	rng := rand.New(rand.NewSource(seed))
	var seen resultClasses
	for _, rg := range tileRegimes(rng) {
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 144, 150, 288} {
			for _, w := range widths {
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
						got := nanScratch(TileRows*w + 16)
						want := make([]float64, TileRows*w)
						r := int64(0)
						if relu {
							r = 1
						}
						asm(&got[0], &a[0][0], &a[1][0], &a[2][0], &a[3][0], &base[0], &off[0],
							k, w, b[0], b[1], b[2], b[3], r)
						block4(want, a[0], a[1], a[2], a[3], base, off, b[0], b[1], b[2], b[3], relu)
						for i, wv := range want {
							if !seen.match(got[i], wv) {
								t.Fatalf("%s k=%d width=%d live=%d relu=%v row=%d col=%d: asm %x (%g) != go %x (%g)",
									rg.name, k, w, live, relu, i/w, i%w,
									math.Float64bits(got[i]), got[i], math.Float64bits(wv), wv)
							}
						}
						for i, g := range got[len(want):] {
							if !math.IsNaN(g) {
								t.Fatalf("%s k=%d width=%d: wrote %g to slot %d past the tile", rg.name, k, w, g, i)
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
	if probed < kernelAVX2 {
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

// TestTileKernelName pins the kernel name benchmark reports record to the
// best body the host's CPU and OS support, as Linux reports them, and
// checks that WithKernel switches to each body Kernels lists and back.
func TestTileKernelName(t *testing.T) {
	bodies := Kernels()
	if flags, ok := cpuFlags(); ok {
		want := []string{"generic"}
		if flags["avx2"] {
			want = append(want, "avx2-4x4")
			if flags["avx512f"] && flags["avx512vl"] {
				want = append(want, "avx512-4x16")
			}
		}
		if !slices.Equal(bodies, want) {
			t.Fatalf("Kernels() = %q, want %q for CPU flags avx2=%v avx512f=%v avx512vl=%v",
				bodies, want, flags["avx2"], flags["avx512f"], flags["avx512vl"])
		}
	}
	host := bodies[len(bodies)-1]
	if got := TileKernel(); got != host {
		t.Fatalf("TileKernel() = %q, want the last of Kernels(), %q", got, host)
	}
	for _, name := range bodies {
		WithKernel(name, func() {
			if got := TileKernel(); got != name {
				t.Errorf("inside WithKernel(%q): %q", name, got)
			}
		})
		if got := TileKernel(); got != host {
			t.Fatalf("after WithKernel(%q): %q, want %q", name, got, host)
		}
	}
}

// cpuFlags returns the CPU flags in /proc/cpuinfo; ok is false where there
// is none. Linux lists an instruction set there only when it also enables
// the register state the set needs, the two things the probe checks.
func cpuFlags() (flags map[string]bool, ok bool) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return nil, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if key, list, found := strings.Cut(line, ":"); found && strings.TrimSpace(key) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			return flags, true
		}
	}
	return nil, false
}
