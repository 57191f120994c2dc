package nn

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hotspot/internal/tensor"
)

func TestSoftmaxIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		x := tensor.New(n)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64() * 10
		}
		p, err := Softmax(x)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range p.Data() {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := tensor.MustFromSlice([]float64{1000, 1001}, 2)
	p, err := Softmax(x)
	if err != nil {
		t.Fatal(err)
	}
	if p.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
	if math.Abs(p.At(0)+p.At(1)-1) > 1e-9 {
		t.Fatal("softmax of large logits not normalized")
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := tensor.MustFromSlice([]float64{0.3, -0.7, 1.2}, 3)
	b := a.Clone()
	for i := range b.Data() {
		b.Data()[i] += 100
	}
	pa, _ := Softmax(a)
	pb, _ := Softmax(b)
	for i := range pa.Data() {
		if math.Abs(pa.Data()[i]-pb.Data()[i]) > 1e-9 {
			t.Fatal("softmax not shift invariant")
		}
	}
}

func TestSoftmaxErrors(t *testing.T) {
	if _, err := Softmax(tensor.New(2, 2)); err == nil {
		t.Fatal("expected rank error")
	}
	if _, err := Softmax(tensor.New(0)); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{0, 0}, 2)
	target := tensor.MustFromSlice([]float64{0, 1}, 2)
	loss, grad, err := SoftmaxCrossEntropy(logits, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln 2", loss)
	}
	if math.Abs(grad.At(0)-0.5) > 1e-12 || math.Abs(grad.At(1)+0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data())
	}
}

func TestCrossEntropySoftTarget(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{2, -1}, 2)
	eps := 0.2
	target := tensor.MustFromSlice([]float64{1 - eps, eps}, 2)
	loss, grad, err := SoftmaxCrossEntropy(logits, target)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Softmax(logits)
	want := -(1-eps)*math.Log(p.At(0)) - eps*math.Log(p.At(1))
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("soft loss = %v, want %v", loss, want)
	}
	if math.Abs(grad.At(0)-(p.At(0)-(1-eps))) > 1e-12 {
		t.Fatalf("soft grad = %v", grad.Data())
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	ok := tensor.MustFromSlice([]float64{0, 0}, 2)
	if _, _, err := SoftmaxCrossEntropy(ok, tensor.MustFromSlice([]float64{0.5, 0.4}, 2)); err == nil {
		t.Fatal("expected non-normalized target error")
	}
	if _, _, err := SoftmaxCrossEntropy(ok, tensor.MustFromSlice([]float64{-0.5, 1.5}, 2)); err == nil {
		t.Fatal("expected negative target error")
	}
	if _, _, err := SoftmaxCrossEntropy(ok, tensor.MustFromSlice([]float64{1, 0, 0}, 3)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float64{-1, 0, 2}, 3)
	y, err := r.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 0 || y.At(1) != 0 || y.At(2) != 2 {
		t.Fatalf("relu forward: %v", y.Data())
	}
	// Input untouched (no aliasing).
	if x.At(0) != -1 {
		t.Fatal("relu mutated its input")
	}
	g, err := r.Backward(tensor.MustFromSlice([]float64{5, 5, 5}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0) != 0 || g.At(1) != 0 || g.At(2) != 5 {
		t.Fatalf("relu backward: %v", g.Data())
	}
	if _, err := r.Backward(tensor.New(5)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2("p")
	x := tensor.MustFromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		0, 0, 1, 0,
		0, 9, 0, 1,
	}, 1, 4, 4)
	y, err := p.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 8, 9, 1}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("maxpool forward: %v, want %v", y.Data(), want)
		}
	}
	// Gradient routes to the argmax positions.
	g, err := p.Backward(tensor.MustFromSlice([]float64{1, 2, 3, 4}, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 1, 1) != 1 || g.At(0, 1, 3) != 2 || g.At(0, 3, 1) != 3 || g.At(0, 2, 2) != 4 {
		t.Fatalf("maxpool backward: %v", g.Data())
	}
}

func TestMaxPoolErrors(t *testing.T) {
	p := NewMaxPool2("p")
	if _, err := p.Forward(tensor.New(4, 4), true); err == nil {
		t.Fatal("expected rank error")
	}
	if _, err := p.Forward(tensor.New(1, 1, 1), true); err == nil {
		t.Fatal("expected too-small error")
	}
}

func TestDropoutTrainEval(t *testing.T) {
	d, err := NewDropout("d", 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1000)
	x.Fill(1)
	y, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range y.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			// survivor scaled by 1/(1-0.5)
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout zeroed %d of 1000 at rate 0.5", zeros)
	}
	// Eval mode is the identity.
	ye, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ye.Data() {
		if v != 1 {
			t.Fatal("dropout not identity at inference")
		}
	}
	// Backward applies the same mask.
	yt, _ := d.Forward(x, true)
	g, err := d.Backward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data() {
		if (yt.Data()[i] == 0) != (g.Data()[i] == 0) {
			t.Fatal("dropout backward mask differs from forward")
		}
	}
}

func TestDropoutRateValidation(t *testing.T) {
	if _, err := NewDropout("d", -0.1, 1); err == nil {
		t.Fatal("expected negative rate error")
	}
	if _, err := NewDropout("d", 1.0, 1); err == nil {
		t.Fatal("expected rate-1 error")
	}
}

// TestDropoutRejectsNaNRate: a NaN rate fails both range tests (rate < 0
// and rate >= 1 are each false for NaN), so it is rejected explicitly by
// NewDropout and by the paper net's config check.
func TestDropoutRejectsNaNRate(t *testing.T) {
	if _, err := NewDropout("d", math.NaN(), 1); err == nil {
		t.Fatal("NewDropout accepted a NaN rate")
	}
	cfg := DefaultPaperNetConfig()
	cfg.DropoutRate = math.NaN()
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN dropout rate")
	}
}

func TestConvSamePaddingShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewConv2D("c", 32, 16, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	shp, err := c.OutputShape([]int{32, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	if shp[0] != 16 || shp[1] != 12 || shp[2] != 12 {
		t.Fatalf("Table-1 conv shape %v, want [16 12 12]", shp)
	}
	if _, err := c.OutputShape([]int{3, 12, 12}); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

func TestConvConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewConv2D("c", 0, 4, 3, 1, 1, rng); err == nil {
		t.Fatal("expected inC error")
	}
	if _, err := NewConv2D("c", 1, 4, 3, 0, 1, rng); err == nil {
		t.Fatal("expected stride error")
	}
	if _, err := NewDense("d", 0, 4, rng); err == nil {
		t.Fatal("expected dense size error")
	}
}

func TestConvBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := NewConv2D("c", 1, 2, 1, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// 1x1 conv on zero input: output equals bias everywhere.
	c.bias.W.Set(3, 0)
	c.bias.W.Set(-1, 1)
	y, err := c.Forward(tensor.New(1, 3, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if y.Data()[i] != 3 || y.Data()[9+i] != -1 {
			t.Fatalf("conv bias broadcast wrong: %v", y.Data())
		}
	}
}

func TestNetworkForwardBackwardErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fc, err := NewDense("fc", 4, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(fc)
	if _, err := net.Forward(tensor.New(3), false); err == nil {
		t.Fatal("expected forward shape error")
	}
	if err := net.Backward(tensor.New(2)); err == nil {
		t.Fatal("expected backward-before-forward error")
	}
}

func TestPaperNetShapesMatchTable1(t *testing.T) {
	cfg := DefaultPaperNetConfig()
	net, err := NewPaperNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		shp  []int
	}{
		{"conv1-1", []int{16, 12, 12}},
		{"conv1-2", []int{16, 12, 12}},
		{"maxpooling1", []int{16, 6, 6}},
		{"conv2-1", []int{32, 6, 6}},
		{"conv2-2", []int{32, 6, 6}},
		{"maxpooling2", []int{32, 3, 3}},
		{"fc1", []int{250}},
		{"fc2", []int{2}},
	}
	shape := []int{32, 12, 12}
	wi := 0
	for _, l := range net.Layers() {
		var err error
		shape, err = l.OutputShape(shape)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if wi < len(want) && l.Name() == want[wi].name {
			for d, v := range want[wi].shp {
				if shape[d] != v {
					t.Fatalf("%s output %v, want %v", l.Name(), shape, want[wi].shp)
				}
			}
			wi++
		}
	}
	if wi != len(want) {
		t.Fatalf("matched %d of %d Table-1 rows", wi, len(want))
	}
	out, err := net.Forward(tensor.New(32, 12, 12), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("paper net output length %d", out.Len())
	}
}

func TestPaperNetConfigValidation(t *testing.T) {
	bad := DefaultPaperNetConfig()
	bad.SpatialSize = 10 // not divisible by 4
	if _, err := NewPaperNet(bad); err == nil {
		t.Fatal("expected spatial size error")
	}
	bad = DefaultPaperNetConfig()
	bad.InChannels = 0
	if _, err := NewPaperNet(bad); err == nil {
		t.Fatal("expected channels error")
	}
	bad = DefaultPaperNetConfig()
	bad.DropoutRate = 1
	if _, err := NewPaperNet(bad); err == nil {
		t.Fatal("expected dropout error")
	}
}

func TestNetworkSummary(t *testing.T) {
	net, err := NewPaperNet(DefaultPaperNetConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := net.Summary([]int{32, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"conv1-1", "maxpooling2", "fc1", "fc2", "total params"} {
		if !strings.Contains(s, row) {
			t.Fatalf("summary missing %q:\n%s", row, s)
		}
	}
	if _, err := net.Summary([]int{3, 5, 5}); err == nil {
		t.Fatal("expected summary shape error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := PaperNetConfig{InChannels: 4, SpatialSize: 8, Conv1Maps: 4, Conv2Maps: 6, FC1: 10, DropoutRate: 0.5, Seed: 9}
	net, err := NewPaperNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 8, 8)
	rng := rand.New(rand.NewSource(10))
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	want, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data() {
		if math.Abs(want.Data()[i]-got.Data()[i]) > 1e-12 {
			t.Fatalf("loaded network differs: %v vs %v", got.Data(), want.Data())
		}
	}
	if loaded.ParamCount() != net.ParamCount() {
		t.Fatal("param count changed across save/load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestCloneIndependent(t *testing.T) {
	cfg := PaperNetConfig{InChannels: 2, SpatialSize: 4, Conv1Maps: 2, Conv2Maps: 2, FC1: 4, DropoutRate: 0, Seed: 11}
	net, err := NewPaperNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone's weights must not affect the original.
	c.Params()[0].W.Fill(0)
	if net.Params()[0].W.Norm2() == 0 {
		t.Fatal("clone shares weights with original")
	}
}

// TestCloneMatchesSaveLoad pins Clone to a Save/Load round trip bit for
// bit: layer kinds, names and geometry, every weight, zero gradients, and
// dropout rate and stream state, on the paper net and on an odd geometry
// (strided, unpadded, non-multiple-of-4 channels), each cloned after a
// training step has advanced its dropout stream. Training-mode forwards
// of the two copies must then agree too.
func TestCloneMatchesSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	paper, err := NewPaperNet(PaperNetConfig{InChannels: 4, SpatialSize: 8, Conv1Maps: 4, Conv2Maps: 6, FC1: 10, DropoutRate: 0.5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := NewConv2D("odd-conv", 3, 5, 3, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := NewDropout("odd-drop", 0.3, 77)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewDense("odd-fc", 5*3*3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	odd := NewNetwork(conv, NewReLU("odd-relu"), drop, fc)
	for _, tc := range []struct {
		name    string
		net     *Network
		inShape []int
	}{
		{"papernet", paper, []int{4, 8, 8}},
		{"odd", odd, []int{3, 7, 7}},
	} {
		x := tensor.New(tc.inShape...)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		out, err := tc.net.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		target := tensor.New(out.Len())
		target.Data()[0] = 1
		_, g, err := SoftmaxCrossEntropy(out, target)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.net.Backward(g); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tc.net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cloned, err := tc.net.Clone()
		if err != nil {
			t.Fatal(err)
		}
		ll, cl := loaded.Layers(), cloned.Layers()
		if len(ll) != len(cl) {
			t.Fatalf("%s: %d layers loaded, %d cloned", tc.name, len(ll), len(cl))
		}
		for i := range ll {
			if reflect.TypeOf(ll[i]) != reflect.TypeOf(cl[i]) || ll[i].Name() != cl[i].Name() {
				t.Fatalf("%s layer %d: loaded %T %q, cloned %T %q", tc.name, i, ll[i], ll[i].Name(), cl[i], cl[i].Name())
			}
			switch l := ll[i].(type) {
			case *Conv2D:
				c := cl[i].(*Conv2D)
				if l.inC != c.inC || l.outC != c.outC || l.kh != c.kh || l.kw != c.kw || l.stride != c.stride || l.pad != c.pad {
					t.Fatalf("%s layer %d: conv geometry differs: %+v vs %+v", tc.name, i, l, c)
				}
			case *Dense:
				c := cl[i].(*Dense)
				if l.in != c.in || l.out != c.out {
					t.Fatalf("%s layer %d: dense %dx%d vs %dx%d", tc.name, i, l.in, l.out, c.in, c.out)
				}
			case *Dropout:
				c := cl[i].(*Dropout)
				if math.Float64bits(l.rate) != math.Float64bits(c.rate) || l.state != c.state {
					t.Fatalf("%s layer %d: dropout rate/state %v/%d vs %v/%d", tc.name, i, l.rate, l.state, c.rate, c.state)
				}
			}
		}
		lp, cp := loaded.Params(), cloned.Params()
		if len(lp) != len(cp) {
			t.Fatalf("%s: %d params loaded, %d cloned", tc.name, len(lp), len(cp))
		}
		for i := range lp {
			if lp[i].Name != cp[i].Name || !tensor.SameShape(lp[i].W, cp[i].W) || !tensor.SameShape(lp[i].Grad, cp[i].Grad) {
				t.Fatalf("%s param %d: %s %v vs %s %v", tc.name, i, lp[i].Name, lp[i].W.Shape(), cp[i].Name, cp[i].W.Shape())
			}
			for j, v := range lp[i].W.Data() {
				if math.Float64bits(v) != math.Float64bits(cp[i].W.Data()[j]) {
					t.Fatalf("%s param %s[%d]: loaded %v, cloned %v", tc.name, lp[i].Name, j, v, cp[i].W.Data()[j])
				}
			}
			if cp[i].Grad.Norm2() != 0 {
				t.Fatalf("%s param %s: clone carries a gradient", tc.name, cp[i].Name)
			}
		}
		lo, err := loaded.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		co, err := cloned.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range lo.Data() {
			if math.Float64bits(v) != math.Float64bits(co.Data()[i]) {
				t.Fatalf("%s: training forward output %d: loaded %v, cloned %v", tc.name, i, v, co.Data()[i])
			}
		}
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fc, err := NewDense("fc", 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(fc)
	x := tensor.MustFromSlice([]float64{1, 2, 3}, 3)
	out, _ := net.Forward(x, true)
	_, g, _ := SoftmaxCrossEntropy(out, tensor.MustFromSlice([]float64{1, 0}, 2))
	_ = net.Backward(g)
	if net.Params()[0].Grad.Norm2() == 0 {
		t.Fatal("gradient should be nonzero after backward")
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		if p.Grad.Norm2() != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
}

func TestGradientAccumulation(t *testing.T) {
	// Two backward passes accumulate: grad after 2 passes = 2x grad after 1.
	rng := rand.New(rand.NewSource(13))
	fc, err := NewDense("fc", 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(fc)
	x := tensor.MustFromSlice([]float64{1, -1, 0.5}, 3)
	target := tensor.MustFromSlice([]float64{0, 1}, 2)

	step := func() {
		out, _ := net.Forward(x, false)
		_, g, _ := SoftmaxCrossEntropy(out, target)
		_ = net.Backward(g)
	}
	net.ZeroGrads()
	step()
	once := append([]float64(nil), net.Params()[0].Grad.Data()...)
	net.ZeroGrads()
	step()
	step()
	twice := net.Params()[0].Grad.Data()
	for i := range once {
		if math.Abs(twice[i]-2*once[i]) > 1e-12 {
			t.Fatal("gradients do not accumulate linearly")
		}
	}
}
