package fused

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// randInput builds a seeded random (shape...) tensor.
func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return x
}

// assertBitEqual fails unless got and want match element for element at
// the bit level (the repo's parity idiom: Float64bits equality, which also
// distinguishes NaN payloads and signed zeros).
func assertBitEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs: fused %v (bits %x) vs layered %v (bits %x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkParity compiles net for inShape and compares the fused forward
// against the layer-by-layer inference path on several random inputs.
func checkParity(t *testing.T, net *nn.Network, inShape []int, label string, seed int64) {
	t.Helper()
	eng, err := Compile(net, inShape)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 3; trial++ {
		x := randInput(rng, inShape...)
		want, err := net.Forward(x, false)
		if err != nil {
			t.Fatalf("%s: layered forward: %v", label, err)
		}
		wantCopy := append([]float64(nil), want.Data()...) // layered buffer is reused
		got, err := eng.Forward(x)
		if err != nil {
			t.Fatalf("%s: fused forward: %v", label, err)
		}
		assertBitEqual(t, got, wantCopy, label)
	}
}

// table1Stages enumerates every conv stage geometry of the paper's Table 1
// (conv layer, whether a ReLU and a pool follow, input shape).
func table1Stages(t *testing.T) []struct {
	name    string
	net     *nn.Network
	inShape []int
} {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	mk := func(name string, inC, outC int, pool bool, h, w int) struct {
		name    string
		net     *nn.Network
		inShape []int
	} {
		conv, err := nn.NewConv2D(name, inC, outC, 3, 1, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		layers := []nn.Layer{conv, nn.NewReLU(name + "-relu")}
		if pool {
			layers = append(layers, nn.NewMaxPool2(name+"-pool"))
		}
		return struct {
			name    string
			net     *nn.Network
			inShape []int
		}{name, nn.NewNetwork(layers...), []int{inC, h, w}}
	}
	return []struct {
		name    string
		net     *nn.Network
		inShape []int
	}{
		mk("conv1-1", 32, 16, false, 12, 12),
		mk("conv1-2", 16, 16, true, 12, 12),
		mk("conv2-1", 16, 32, false, 6, 6),
		mk("conv2-2", 32, 32, true, 6, 6),
	}
}

// TestParityTable1Stages pins fused ≡ layered on every Table 1 conv stage.
func TestParityTable1Stages(t *testing.T) {
	for i, s := range table1Stages(t) {
		checkParity(t, s.net, s.inShape, s.name, int64(100+i))
	}
}

// TestParityPaperNet pins fused ≡ layered end to end on the full Table 1
// network, including the dense stages and the inference-identity dropout.
func TestParityPaperNet(t *testing.T) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, net, []int{32, 12, 12}, "papernet", 42)
}

// testNet is a named network and the input shape it is compiled for.
type testNet struct {
	name    string
	net     *nn.Network
	inShape []int
}

// oddGeometryNets builds stride/pad edge cases and odd input sizes:
// strided convs, zero padding, pools over odd extents (trailing row/column
// dropped), non-multiple-of-4 channel counts (the kernel's remainder
// paths), standalone ReLU and pool ops, and dense-only nets.
func oddGeometryNets(t *testing.T) []testNet {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	conv := func(name string, inC, outC, k, stride, pad int) *nn.Conv2D {
		c, err := nn.NewConv2D(name, inC, outC, k, stride, pad, rng)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dense := func(name string, in, out int) *nn.Dense {
		d, err := nn.NewDense(name, in, out, rng)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	drop := func(name string, rate float64) *nn.Dropout {
		d, err := nn.NewDropout(name, rate, 7)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return []testNet{
		{"stride2-pad0-odd-input", nn.NewNetwork(
			conv("c", 3, 5, 3, 2, 0), nn.NewReLU("r"),
		), []int{3, 7, 9}},
		{"k5-pad2", nn.NewNetwork(
			conv("c", 2, 3, 5, 1, 2), nn.NewReLU("r"), nn.NewMaxPool2("p"),
		), []int{2, 5, 5}},
		{"pool-odd-extent", nn.NewNetwork(
			conv("c", 1, 7, 3, 1, 1), nn.NewMaxPool2("p"), // conv→pool, no relu between
		), []int{1, 5, 7}},
		{"standalone-relu-and-pool", nn.NewNetwork(
			conv("c", 2, 6, 3, 1, 1), nn.NewMaxPool2("p"), nn.NewReLU("r-after-pool"),
			dense("fc", 6*3*3, 4),
		), []int{2, 6, 6}},
		{"remainder-rows", nn.NewNetwork( // outC % 4 != 0 and k·k·inC % 4 != 0
			conv("c", 1, 5, 3, 1, 0), nn.NewReLU("r"),
		), []int{1, 8, 8}},
		{"dense-only-with-dropout", nn.NewNetwork(
			dense("fc1", 24, 10), nn.NewReLU("r"), drop("d", 0.5), dense("fc2", 10, 3),
		), []int{24}},
		{"dense-on-rank3-input", nn.NewNetwork(
			dense("fc", 2*3*4, 6), nn.NewReLU("r"),
		), []int{2, 3, 4}},
		{"trailing-dropout", nn.NewNetwork(
			dense("fc", 9, 2), drop("d", 0.3),
		), []int{9}},
		{"stacked-convs-mixed-strides", nn.NewNetwork(
			conv("c1", 2, 8, 3, 1, 1), nn.NewReLU("r1"),
			conv("c2", 8, 4, 3, 2, 1), nn.NewReLU("r2"), nn.NewMaxPool2("p"),
			dense("fc", 4*2*2, 2),
		), []int{2, 9, 9}},
	}
}

// TestParityOddGeometries pins fused ≡ layered on every oddGeometryNets
// case.
func TestParityOddGeometries(t *testing.T) {
	for i, c := range oddGeometryNets(t) {
		checkParity(t, c.net, c.inShape, c.name, int64(200+i))
	}
}

// mostlyZeroConv builds a conv with about 90% of its weights zeroed. The
// tile kernel adds every zero product in order, so 0·∞ and signed zeros
// must reach the fused sums as they reach the layered ones.
func mostlyZeroConv(t *testing.T, name string, inC, outC int, seed int64) *nn.Conv2D {
	t.Helper()
	conv, err := nn.NewConv2D(name, inC, outC, 3, 1, 1, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := conv.Weights()
	zrng := rand.New(rand.NewSource(seed + 1))
	for i := range w.Data() {
		if zrng.Float64() < 0.9 {
			w.Data()[i] = 0
		}
	}
	return conv
}

// TestParitySparseWeights pins fused ≡ layered on a conv with about 90% of
// its weights zeroed: both paths run the one tile kernel over every
// coefficient, zeros included.
func TestParitySparseWeights(t *testing.T) {
	net := nn.NewNetwork(mostlyZeroConv(t, "c", 4, 8, 31), nn.NewReLU("r"), nn.NewMaxPool2("p"))
	checkParity(t, net, []int{4, 6, 6}, "mostly-zero", 33)
}

// TestWeightAliasing verifies an engine sees in-place weight updates (the
// contract train.Evaluator's weight sync relies on) without recompiling.
func TestWeightAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net, err := nn.NewPaperNet(nn.PaperNetConfig{
		InChannels: 4, SpatialSize: 8, Conv1Maps: 4, Conv2Maps: 8, FC1: 16,
		DropoutRate: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(net, []int{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 4, 8, 8)
	before, err := eng.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	beforeCopy := append([]float64(nil), before...)
	// Perturb every parameter in place, as an optimizer step would.
	for _, p := range net.Params() {
		for i := range p.W.Data() {
			p.W.Data()[i] += 0.25
		}
	}
	want, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := append([]float64(nil), want.Data()...)
	got, err := eng.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, got, wantCopy, "after in-place update")
	same := true
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(beforeCopy[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("engine output unchanged after weight update — weights were copied, not aliased")
	}
}

// TestGateFollowsWeightUpdates: ForwardBatch reads the weights as they are
// at the call, not at compile time. An engine compiled on dense weights
// must match the layered path bit for bit after 70% of them are zeroed in
// place, and again once they are refilled.
func TestGateFollowsWeightUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	conv, err := nn.NewConv2D("c", 4, 8, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewDense("fc", 8*3*3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewNetwork(conv, nn.NewReLU("r"), nn.NewMaxPool2("p"), fc)
	eng, err := Compile(net, []int{4, 6, 6})
	if err != nil {
		t.Fatal(err)
	}
	xs := []*tensor.Tensor{randInput(rng, 4, 6, 6), randInput(rng, 4, 6, 6)}
	w, _ := conv.Weights()
	dense := append([]float64(nil), w.Data()...)
	check := func(label string) {
		t.Helper()
		out := make([]float64, len(xs)*eng.OutLen())
		if err := eng.ForwardBatch(out, xs); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want, err := net.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, out[i*eng.OutLen():(i+1)*eng.OutLen()], want.Data(), fmt.Sprintf("%s sample %d", label, i))
		}
	}
	check("dense")
	for i := range w.Data() {
		if rng.Float64() < 0.7 {
			w.Data()[i] = 0
		}
	}
	check("mostly-zero after an in-place update")
	copy(w.Data(), dense)
	check("dense again")
}

// TestForwardZeroAlloc pins the arena contract: a compiled engine's
// forward pass performs no heap allocations, for one sample through
// Forward, for batches of 1, 4 and 9 through ForwardBatch and for rows of
// 1, 4 and 9 grid windows through ForwardGrid; nor does a Grid's Update,
// over the whole die or a few blocks.
func TestForwardZeroAlloc(t *testing.T) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(net, []int{32, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	x := randInput(rng, 32, 12, 12)
	if _, err := eng.Forward(x); err != nil { // warm-up + error check
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Forward(x); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused forward allocates %.1f times per pass, want 0", allocs)
	}
	for _, size := range []int{1, 4, 9} {
		xs := make([]*tensor.Tensor, size)
		for i := range xs {
			xs[i] = randInput(rng, 32, 12, 12)
		}
		out := make([]float64, size*eng.OutLen())
		if err := eng.ForwardBatch(out, xs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := eng.ForwardBatch(out, xs); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("batch of %d allocates %.1f times per call, want 0", size, allocs)
		}
	}
	g, _ := randGrid(t, eng, 24, 14, rng)
	for _, size := range []int{1, 4, 9} {
		out := make([]float64, size*eng.OutLen())
		allocs := testing.AllocsPerRun(20, func() {
			if err := eng.ForwardGrid(out, g, 2, 1); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("grid row of %d allocates %.1f times per call, want 0", size, allocs)
		}
	}
	for _, r := range [][4]int{{0, 0, 24, 14}, {5, 3, 8, 5}} {
		if allocs := testing.AllocsPerRun(5, func() { g.Update(r[0], r[1], r[2], r[3]) }); allocs != 0 {
			t.Fatalf("Update(%v) allocates %.1f times per call, want 0", r, allocs)
		}
	}
}

// specialInput builds a seeded random input laced with the values bit
// parity must carry through unchanged: signed zeros and subnormals of both
// signs, on about a quarter of the elements, or on all of them when all is
// set.
func specialInput(rng *rand.Rand, all bool, shape ...int) *tensor.Tensor {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1.5e-315}
	x := randInput(rng, shape...)
	for i := range x.Data() {
		if all || rng.Intn(4) == 0 {
			x.Data()[i] = specials[rng.Intn(len(specials))]
		}
	}
	return x
}

// batchNets are the nets ForwardBatch is pinned on besides
// oddGeometryNets: the paper net, a mostly-zero net with a dense tail and
// a conv-only net.
func batchNets(t *testing.T) []testNet {
	t.Helper()
	paper, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	fc, err := nn.NewDense("fc", 8*3*3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := nn.NewConv2D("c1", 3, 6, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := nn.NewConv2D("c2", 6, 5, 3, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	return []testNet{
		{"papernet", paper, []int{32, 12, 12}},
		{"mostly-zero", nn.NewNetwork(
			mostlyZeroConv(t, "c", 4, 8, 73), nn.NewReLU("r"), nn.NewMaxPool2("p"), fc,
		), []int{4, 6, 6}},
		{"conv-only", nn.NewNetwork(
			c1, nn.NewReLU("r1"), nn.NewMaxPool2("p"), c2, nn.NewReLU("r2"),
		), []int{3, 10, 10}},
	}
}

// TestForwardBatchParity pins ForwardBatch against Forward and against the
// layered net.Forward, by Float64bits, at batch sizes around the dot
// tile's four lanes, on every oddGeometryNets and batchNets case. Each
// batch's last input is all signed zeros and subnormals; the others carry
// them on a quarter of their elements.
func TestForwardBatchParity(t *testing.T) {
	for ni, c := range append(oddGeometryNets(t), batchNets(t)...) {
		eng, err := Compile(c.net, c.inShape)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		n := eng.OutLen()
		rng := rand.New(rand.NewSource(int64(300 + ni)))
		for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			xs := make([]*tensor.Tensor, size)
			for i := range xs {
				xs[i] = specialInput(rng, i == size-1, c.inShape...)
			}
			out := make([]float64, size*n)
			if err := eng.ForwardBatch(out, xs); err != nil {
				t.Fatalf("%s batch %d: %v", c.name, size, err)
			}
			for i, x := range xs {
				label := fmt.Sprintf("%s batch %d sample %d", c.name, size, i)
				want, err := c.net.Forward(x, false)
				if err != nil {
					t.Fatalf("%s: layered forward: %v", label, err)
				}
				assertBitEqual(t, out[i*n:(i+1)*n], want.Data(), label+" vs layered")
				one, err := eng.Forward(x)
				if err != nil {
					t.Fatalf("%s: Forward: %v", label, err)
				}
				assertBitEqual(t, out[i*n:(i+1)*n], one, label+" vs Forward")
			}
		}
	}
}

// TestForwardBatchErrors: ForwardBatch checks the output length and every
// input's shape before it computes anything, and names the lowest
// wrong-shape input.
func TestForwardBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	net := batchNets(t)[1]
	eng, err := Compile(net.net, net.inShape)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, 5)
	for i := range xs {
		xs[i] = randInput(rng, net.inShape...)
	}
	if err := eng.ForwardBatch(make([]float64, 4*eng.OutLen()), xs); err == nil ||
		!strings.Contains(err.Error(), "output holds 20 values, want 25") {
		t.Fatalf("short output: err %v", err)
	}
	if err := eng.ForwardBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	xs[2] = randInput(rng, 4, 6, 5)
	xs[4] = randInput(rng, 4, 6, 7)
	out := make([]float64, 5*eng.OutLen())
	for i := range out {
		out[i] = -1
	}
	if err := eng.ForwardBatch(out, xs); err == nil ||
		!strings.Contains(err.Error(), "input 2 shape [4 6 5], engine compiled for [4 6 6]") {
		t.Fatalf("wrong-shape inputs 2 and 4: err %v", err)
	}
	for i, v := range out {
		if v != -1 {
			t.Fatalf("output %d written before the shape check failed", i)
		}
	}
}

// BenchmarkFusedPaperNetBatch scores the paper net four windows per call,
// the chunk train.Evaluator uses; compare its ns/op with four
// BenchmarkFusedPaperNetInference iterations. The windows are
// BenchmarkForwardGrid's, assembled as input tensors.
func BenchmarkFusedPaperNetBatch(b *testing.B) {
	eng, g, die := benchGrid(b)
	xs := make([]*tensor.Tensor, tensor.TileRows)
	for i := range xs {
		xs[i] = windowTensor(g, die, 30+i, 30)
	}
	out := make([]float64, len(xs)*eng.OutLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ForwardBatch(out, xs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileFusesLayers checks the plan actually collapses: the paper net
// has 13 layers but must compile to 6 fused ops (4 conv stages + 2 dense).
func TestCompileFusesLayers(t *testing.T) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Compile(net, []int{32, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Ops(); got != 6 {
		t.Fatalf("paper net compiled to %d ops, want 6 (4 fused conv stages + 2 dense)", got)
	}
	if eng.OutLen() != 2 {
		t.Fatalf("output length %d, want 2", eng.OutLen())
	}
	if eng.ArenaLen() == 0 {
		t.Fatal("empty arena")
	}
}

// TestCompileErrors exercises rejection paths: unsupported layers, bad
// input shapes, geometry collapse, and shape-mismatched Forward inputs.
func TestCompileErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	conv, err := nn.NewConv2D("c", 2, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewNetwork(conv)

	if _, err := Compile(nn.NewNetwork(), []int{1}); err == nil {
		t.Fatal("empty network accepted")
	}
	if _, err := Compile(net, nil); err == nil {
		t.Fatal("empty input shape accepted")
	}
	if _, err := Compile(net, []int{2, 0, 5}); err == nil {
		t.Fatal("zero dimension accepted")
	}
	if _, err := Compile(net, []int{3, 5, 5}); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	d, err := nn.NewDropout("d", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(nn.NewNetwork(d), []int{4}); err == nil {
		t.Fatal("dropout-only network accepted")
	}

	eng, err := Compile(net, []int{2, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Forward(tensor.New(2, 6, 6)); err == nil {
		t.Fatal("shape-mismatched input accepted")
	}
	if eng.Accepts(tensor.New(2, 6, 6)) {
		t.Fatal("Accepts approved a mismatched shape")
	}
	if !eng.Accepts(tensor.New(2, 5, 5)) {
		t.Fatal("Accepts rejected the compiled shape")
	}
}

// BenchmarkFusedPaperNetInference is the fused counterpart of
// nn.BenchmarkPaperNetInference for quick go-test comparisons; end-to-end
// numbers come from the repository benchmark in perfbench/ (a traced run
// reports the fused forward per Table 1 stage).
func BenchmarkFusedPaperNetInference(b *testing.B) {
	net, err := nn.NewPaperNet(nn.DefaultPaperNetConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := Compile(net, []int{32, 12, 12})
	if err != nil {
		b.Fatal(err)
	}
	x := randInput(rand.New(rand.NewSource(2)), 32, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}
