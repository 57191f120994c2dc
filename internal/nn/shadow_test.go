package nn

import (
	"math"
	"math/rand"
	"testing"

	"hotspot/internal/tensor"
)

// poisonGrads fills every gradient of net with NaN, so a store that skips
// an element shows up in the bit comparison.
func poisonGrads(net *Network) {
	for _, p := range net.Params() {
		p.Grad.Fill(math.NaN())
	}
}

// requireSameGrads compares two networks' gradients bit for bit.
func requireSameGrads(t *testing.T, what string, want, got *Network) {
	t.Helper()
	wp, gp := want.Params(), got.Params()
	for i := range wp {
		for j, v := range wp[i].Grad.Data() {
			if math.Float64bits(v) != math.Float64bits(gp[i].Grad.Data()[j]) {
				t.Fatalf("%s: %s grad[%d] = %v stored, %v added into zero", what, wp[i].Name, j, gp[i].Grad.Data()[j], v)
			}
		}
	}
}

// TestShadowAliasesWeights pins the shadow contract: a shadow's weights
// are the network's own tensors, and its gradients are its own, distinct
// from the network's and from every other shadow's.
func TestShadowAliasesWeights(t *testing.T) {
	net, err := NewPaperNet(PaperNetConfig{InChannels: 2, SpatialSize: 4, Conv1Maps: 2, Conv2Maps: 2, FC1: 4, DropoutRate: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	np := net.Params()
	grads := map[*tensor.Tensor]bool{}
	for _, p := range np {
		grads[p.Grad] = true
	}
	for s := 0; s < 2; s++ {
		sh, err := net.Shadow()
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range sh.Params() {
			if p.W != np[i].W || grads[p.Grad] || p.Name != np[i].Name {
				t.Fatalf("shadow %d param %s: want the network's weights and its own gradient", s, p.Name)
			}
			grads[p.Grad] = true
		}
	}
}

// TestShadowStoreMatchesAccumulate runs one sample through a network with
// zeroed gradients, which Backward adds into, and through its shadow, which
// stores into NaN-poisoned gradients: every conv and dense gradient must
// match bit for bit, whichever layer kinds sit between them.
func TestShadowStoreMatchesAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	conv1, err := NewConv2D("c1", 2, 3, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	conv2, err := NewConv2D("c2", 3, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	fc1, err := NewDense("fc1", 4*2*3, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := NewDropout("drop", 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := NewDense("fc2", 5, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(conv1, NewReLU("r1"), NewMaxPool2("p1"), conv2, NewReLU("r2"), fc1, NewReLU("r3"), drop, fc2)
	sh, err := net.Shadow()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 4, 6)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(20)-10))
	}
	target := tensor.MustFromSlice([]float64{0.3, 0.7}, 2)
	for sample := int64(0); sample < 4; sample++ {
		net.ZeroGrads()
		poisonGrads(sh)
		for _, n := range []*Network{net, sh} {
			n.ReseedDropout(sample)
			out, err := n.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			_, g, err := SoftmaxCrossEntropy(out, target)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Backward(g); err != nil {
				t.Fatal(err)
			}
		}
		requireSameGrads(t, "paper-shaped stack", net, sh)
	}
}

// TestDenseStoreSignedZeros drives Dense.Backward with a gradient holding
// a g = 0 row, a g = −0 row and a g < 0 row over an input with a +0 entry.
// Adding into zeroed gradients gives +0 for the skipped rows and
// +0 + (−0) = +0 for the −0 product; the shadow's store must give the same
// bits, not −0.
func TestDenseStoreSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fc, err := NewDense("fc", 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(fc)
	sh, err := net.Shadow()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float64{0, 1.5, -2}, 3)
	g := tensor.MustFromSlice([]float64{-0.5, 0, math.Copysign(0, -1), 0.25}, 4)
	net.ZeroGrads()
	poisonGrads(sh)
	for _, n := range []*Network{net, sh} {
		if _, err := n.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		if err := n.Backward(g); err != nil {
			t.Fatal(err)
		}
	}
	requireSameGrads(t, "signed zeros", net, sh)
	if bits := math.Float64bits(net.Params()[0].Grad.At(0, 0)); bits != 0 {
		t.Fatalf("dW[0][0] = %v (bits %#x): the case under test is a +0 from a −0 product", net.Params()[0].Grad.At(0, 0), bits)
	}
}
