package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fillRand fills t with standard normals from rng.
func fillRand(t *Tensor, rng *rand.Rand) {
	for i := range t.data {
		t.data[i] = rng.NormFloat64()
	}
}

// TestMatMulBiasIntoMatchesTwoPass pins the bit-for-bit contract of the
// fused bias epilogue: MatMulBiasInto must equal MatMulInto followed by a
// row-wise bias broadcast, element for element, on both the dense-unrolled
// and the sparse row-skipping kernel paths.
func TestMatMulBiasIntoMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, k, n int }{
		{16, 288, 144}, // conv1-1 of the paper's Table 1
		{16, 144, 144}, // conv1-2
		{32, 144, 36},  // conv2-1
		{32, 288, 36},  // conv2-2
		{3, 5, 7},      // remainder loops (k % 4 != 0)
		{1, 1, 1},
	}
	for _, sparse := range []bool{false, true} {
		for _, s := range shapes {
			a, b := New(s.m, s.k), New(s.k, s.n)
			fillRand(a, rng)
			fillRand(b, rng)
			if sparse {
				// Zero out enough of a to trip the sparse gate.
				for i := range a.data {
					if rng.Float64() < 0.9 {
						a.data[i] = 0
					}
				}
			}
			bias := New(s.m)
			fillRand(bias, rng)

			want := New(s.m, s.n)
			if err := MatMulInto(want, a, b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.m; i++ {
				bv := bias.data[i]
				row := want.data[i*s.n : (i+1)*s.n]
				for j := range row {
					row[j] += bv
				}
			}

			got := New(s.m, s.n)
			if err := MatMulBiasInto(got, a, b, bias); err != nil {
				t.Fatal(err)
			}
			for i := range got.data {
				if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
					t.Fatalf("shape %v sparse=%v: element %d differs: %v vs %v",
						s, sparse, i, got.data[i], want.data[i])
				}
			}
		}
	}
}

// TestMatMulBiasIntoShapeErrors exercises the validation paths.
func TestMatMulBiasIntoShapeErrors(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	out := New(2, 4)
	if err := MatMulBiasInto(out, a, b, New(3)); err == nil {
		t.Fatal("wrong bias length accepted")
	}
	if err := MatMulBiasInto(New(2, 5), a, b, New(2)); err == nil {
		t.Fatal("wrong output shape accepted")
	}
	if err := MatMulBiasInto(out, a, b, New(2, 1).MustReshape(2, 1)); err == nil {
		t.Fatal("rank-2 bias accepted")
	}
	if err := MatMulBiasInto(out, a, b, New(2)); err != nil {
		t.Fatalf("valid shapes rejected: %v", err)
	}
}

// TestSparseGateMatchesFullCount pins the early-exit gate to the full
// zero count it replaced (zeros > 0.6·n in floating point) for every length
// 0–200, at densities on both sides of the 60% threshold, at exactly the
// threshold count and one either side, and with the zeros placed first,
// last and scattered (so the early exit fires at every position).
func TestSparseGateMatchesFullCount(t *testing.T) {
	fullCount := func(a []float64) bool {
		zeros := 0
		for _, v := range a {
			if v == 0 {
				zeros++
			}
		}
		return float64(zeros) > sparseSkipThreshold*float64(len(a))
	}
	rng := rand.New(rand.NewSource(17))
	a := make([]float64, 200)
	for n := 0; n <= 200; n++ {
		at := int(sparseSkipThreshold * float64(n))
		counts := []int{0, n, at, at + 1, at - 1, n / 2, n * 7 / 10, n * 9 / 10}
		for _, zeros := range counts {
			if zeros < 0 || zeros > n {
				continue
			}
			for layout := 0; layout < 3; layout++ {
				x := a[:n]
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				switch layout {
				case 0: // zeros first
					for i := 0; i < zeros; i++ {
						x[i] = 0
					}
				case 1: // zeros last
					for i := n - zeros; i < n; i++ {
						x[i] = 0
					}
				default: // scattered
					for _, i := range rng.Perm(n)[:zeros] {
						x[i] = 0
					}
				}
				if got, want := sparseWorthwhile(x), fullCount(x); got != want {
					t.Fatalf("n=%d zeros=%d layout=%d: gate %v, full count %v", n, zeros, layout, got, want)
				}
			}
		}
	}
}

// TestSparseSkipMatchesKernelGate pins the exported gate to the internal
// heuristic the kernels use.
func TestSparseSkipMatchesKernelGate(t *testing.T) {
	dense := make([]float64, 100)
	for i := range dense {
		dense[i] = 1
	}
	if SparseSkip(dense) {
		t.Fatal("dense data classified sparse")
	}
	mostlyZero := make([]float64, 100)
	for i := 0; i < 10; i++ {
		mostlyZero[i] = 1
	}
	if !SparseSkip(mostlyZero) {
		t.Fatal("90%-zero data classified dense")
	}
	if SparseSkip(mostlyZero) != sparseWorthwhile(mostlyZero) {
		t.Fatal("exported gate diverges from kernel gate")
	}
}
