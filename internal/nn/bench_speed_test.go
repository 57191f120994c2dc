package nn

import (
	"math/rand"
	"testing"

	"hotspot/internal/tensor"
)

// paperNetTrainStep returns one layered training step on the Table-1 net
// — zero gradients, forward, loss, backward — over a fixed random sample.
func paperNetTrainStep(tb testing.TB) func() {
	net, err := NewPaperNet(DefaultPaperNetConfig())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(32, 12, 12)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	target := tensor.MustFromSlice([]float64{1, 0}, 2)
	return func() {
		net.ZeroGrads()
		out, _ := net.Forward(x, true)
		_, g, _ := SoftmaxCrossEntropy(out, target)
		_ = net.Backward(g)
	}
}

func BenchmarkPaperNetTrainStep(b *testing.B) {
	step := paperNetTrainStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestPaperNetTrainStepAllocs pins the steady-state allocations of a
// layered training step at 88 or fewer: the tile products' scratch is
// sized with the layers' other buffers on the first step, so it adds
// nothing per step.
func TestPaperNetTrainStepAllocs(t *testing.T) {
	step := paperNetTrainStep(t)
	step() // sizes every layer buffer
	if allocs := testing.AllocsPerRun(20, step); allocs > 88 {
		t.Fatalf("a layered train step allocates %.1f times, want at most 88", allocs)
	}
}

// BenchmarkPaperNetInference tracks the steady-state forward pass — the
// per-clip testing cost — which the layer buffer reuse keeps allocation-free
// after warm-up.
func BenchmarkPaperNetInference(b *testing.B) {
	net, _ := NewPaperNet(DefaultPaperNetConfig())
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(32, 12, 12)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}
