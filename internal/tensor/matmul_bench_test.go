package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkMatMulIntoDense times the reference product on conv-shaped
// dense operands (the paper net's conv2-2 forward: (32, 288) x (288, 36)),
// as a trained conv's weights are.
func BenchmarkMatMulIntoDense(bn *testing.B) {
	const m, k, n = 32, 288, 36
	rng := rand.New(rand.NewSource(7))
	a, b, out := New(m, k), New(k, n), New(m, n)
	fillRand(a, rng)
	fillRand(b, rng)
	bn.ReportAllocs()
	bn.ResetTimer()
	for i := 0; i < bn.N; i++ {
		if err := MatMulInto(out, a, b); err != nil {
			bn.Fatal(err)
		}
	}
}

// BenchmarkMatMulATIntoDense times MatMulATInto, aᵀ·b for a (k, m) and
// b (k, n), the reference of the conv input gradient, on dense operands.
func BenchmarkMatMulATIntoDense(bn *testing.B) {
	const k, m, n = 32, 288, 36
	rng := rand.New(rand.NewSource(9))
	a, b, out := New(k, m), New(k, n), New(m, n)
	fillRand(a, rng)
	fillRand(b, rng)
	bn.ReportAllocs()
	bn.ResetTimer()
	for i := 0; i < bn.N; i++ {
		if err := MatMulATInto(out, a, b); err != nil {
			bn.Fatal(err)
		}
	}
}
