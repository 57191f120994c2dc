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
// row-wise bias broadcast, element for element, on dense and on
// mostly-zero coefficients.
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
	for _, mostlyZero := range []bool{false, true} {
		for _, s := range shapes {
			a, b := New(s.m, s.k), New(s.k, s.n)
			fillRand(a, rng)
			fillRand(b, rng)
			if mostlyZero {
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
					t.Fatalf("shape %v mostlyZero=%v: element %d differs: %v vs %v",
						s, mostlyZero, i, got.data[i], want.data[i])
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

// TestMatVecIntoMatchesLoop pins MatVecInto's four row chains per pass to
// the one-chain-per-row loop, matVecLoop, bit for bit, over row counts
// that leave every remainder mod 4 (and fc2's 250) and term counts 1–9
// and fc1's 288, in every operand regime of the tile tests: ±0, NaN, ±Inf
// and subnormals.
func TestMatVecIntoMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	var seen resultClasses
	for _, rg := range tileRegimes(rng) {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 250} {
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 288} {
				a := tileOperand(rg, m, k, 0, 0, rng)
				x := tileOperand(rg, 1, k, 0, 0, rng)
				want := make([]float64, m)
				matVecLoop(want, a, x, m, k)
				got := New(m)
				got.Fill(math.NaN())
				if err := MatVecInto(got, MustFromSlice(a, m, k), MustFromSlice(x, k)); err != nil {
					t.Fatal(err)
				}
				for i, wv := range want {
					if !seen.match(got.data[i], wv) {
						t.Fatalf("%s m=%d k=%d: row %d = %x (%g), want %x (%g)", rg.name, m, k, i,
							math.Float64bits(got.data[i]), got.data[i], math.Float64bits(wv), wv)
					}
				}
			}
		}
	}
	seen.complete(t)
}
