package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveConv computes a direct cross-correlation (the DL "convolution") for a
// single output channel, used as the reference for the im2col+matmul path.
func naiveConv(in *Tensor, w *Tensor, stride, pad int) *Tensor {
	c, h, ww := in.Dim(0), in.Dim(1), in.Dim(2)
	kc, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2)
	if kc != c {
		panic("channel mismatch")
	}
	oh := ConvOutputSize(h, kh, stride, pad)
	ow := ConvOutputSize(ww, kw, stride, pad)
	out := New(oh, ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			s := 0.0
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy := oy*stride - pad + ky
						ix := ox*stride - pad + kx
						if iy < 0 || iy >= h || ix < 0 || ix >= ww {
							continue
						}
						s += in.At(ch, iy, ix) * w.At(ch, ky, kx)
					}
				}
			}
			out.Set(s, oy, ox)
		}
	}
	return out
}

// im2col returns Im2ColInto's columns of in in a new tensor.
func im2col(in *Tensor, kh, kw, stride, pad int) (*Tensor, error) {
	oh := (in.Dim(1)+2*pad-kh)/stride + 1
	ow := (in.Dim(2)+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("kernel %dx%d does not fit", kh, kw)
	}
	out := New(in.Dim(0)*kh*kw, oh*ow)
	return out, Im2ColInto(out, in, kh, kw, stride, pad)
}

// dot returns the inner product of a and b viewed as flat vectors.
func dot(a, b *Tensor) float64 {
	s := 0.0
	for i, v := range a.Data() {
		s += v * b.Data()[i]
	}
	return s
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		c := 1 + rng.Intn(3)
		h := 3 + rng.Intn(6)
		w := 3 + rng.Intn(6)
		kh := 1 + rng.Intn(3)
		kw := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		in := New(c, h, w)
		for i := range in.Data() {
			in.Data()[i] = rng.NormFloat64()
		}
		weights := New(c, kh, kw)
		for i := range weights.Data() {
			weights.Data()[i] = rng.NormFloat64()
		}
		cols, err := im2col(in, kh, kw, stride, pad)
		if err != nil {
			t.Fatal(err)
		}
		wRow := weights.MustReshape(1, c*kh*kw)
		got, err := matMul(wRow, cols)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveConv(in, weights, stride, pad)
		for i := range got.Data() {
			if !almostEqual(got.Data()[i], want.Data()[i], 1e-10) {
				t.Fatalf("trial %d: im2col conv mismatch at %d: got %v want %v (c=%d h=%d w=%d k=%dx%d s=%d p=%d)",
					trial, i, got.Data()[i], want.Data()[i], c, h, w, kh, kw, stride, pad)
			}
		}
	}
}

func TestIm2ColShape(t *testing.T) {
	in := New(2, 12, 12)
	if err := Im2ColInto(New(2*3*3, 12*12), in, 3, 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := Im2ColInto(New(2*3*3, 12*12-1), in, 3, 3, 1, 1); err == nil {
		t.Fatal("expected [18 143] to be rejected for [18 144] columns")
	}
}

func TestIm2ColErrors(t *testing.T) {
	if err := Im2ColInto(New(9, 4), New(2, 2), 3, 3, 1, 1); err == nil {
		t.Fatal("expected rank error")
	}
	if err := Im2ColInto(New(4, 2), New(1, 4, 4), 3, 3, 1, 1); err == nil {
		t.Fatal("expected geometry error")
	}
	if err := Im2ColInto(New(25, 1), New(1, 2, 2), 5, 5, 1, 0); err == nil {
		t.Fatal("expected kernel-too-large error")
	}
}

// Col2ImInto must be the adjoint of Im2ColInto:
// <Im2Col(x), y> == <x, Col2Im(y)>.
// This is precisely what backprop through the convolution requires.
func TestCol2ImIsAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := 1 + r.Intn(2)
		h := 3 + r.Intn(4)
		w := 3 + r.Intn(4)
		kh, kw := 1+r.Intn(3), 1+r.Intn(3)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		x := New(c, h, w)
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64()
		}
		cols, err := im2col(x, kh, kw, stride, pad)
		if err != nil {
			return true // geometry invalid for these params; skip
		}
		y := New(cols.Dim(0), cols.Dim(1))
		for i := range y.Data() {
			y.Data()[i] = r.NormFloat64()
		}
		back := New(c, h, w)
		if err := Col2ImInto(back, y, kh, kw, stride, pad); err != nil {
			return false
		}
		return almostEqual(dot(cols, y), dot(x, back), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2ImErrors(t *testing.T) {
	if err := Col2ImInto(New(1, 4, 4), New(3), 3, 3, 1, 1); err == nil {
		t.Fatal("expected rank error")
	}
	if err := Col2ImInto(New(1, 4, 4), New(5, 5), 3, 3, 1, 1); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestConvOutputSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{12, 3, 1, 1, 12}, // "same" conv from the paper's Table 1
		{12, 2, 2, 0, 6},  // 2x2 max-pool
		{6, 2, 2, 0, 3},
		{100, 3, 1, 0, 98},
	}
	for _, c := range cases {
		if got := ConvOutputSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutputSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// oracleIm2Col and oracleCol2Im are the element-wise loops: a bounds test
// per output element, in the loop order the production code keeps.
func oracleIm2Col(out, in []float64, c, h, w, k, stride, pad, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := ((ch*k+ky)*k + kx) * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						v := 0.0
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = in[(ch*h+iy)*w+ix]
						}
						out[row+oy*ow+ox] = v
					}
				}
			}
		}
	}
}

func oracleCol2Im(out, cols []float64, c, h, w, k, stride, pad, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := ((ch*k+ky)*k + kx) * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							out[(ch*h+iy)*w+ix] += cols[row+oy*ow+ox]
						}
					}
				}
			}
		}
	}
}

// TestIm2ColRunsMatchOracle pins the run-copy im2col and run-add col2im
// against the element-wise oracles, bit for bit: pads 0/1/2, kernels
// 1/3/5, non-square inputs, and pad ≥ k, where whole output rows — and,
// on a 1-wide input, whole kernel columns — have no valid run. Inputs span
// many magnitudes, so a changed addition order in col2im would show.
func TestIm2ColRunsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, stride := range []int{1, 2} {
		for _, k := range []int{1, 3, 5} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range [][2]int{{4, 7}, {7, 3}, {5, 1}, {1, 6}} {
					c, h, w := 2, hw[0], hw[1]
					oh, ow := ConvOutputSize(h, k, stride, pad), ConvOutputSize(w, k, stride, pad)
					if oh <= 0 || ow <= 0 {
						continue
					}
					in := New(c, h, w)
					for i := range in.data {
						in.data[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(60)-30))
					}
					want := make([]float64, c*k*k*oh*ow)
					oracleIm2Col(want, in.data, c, h, w, k, stride, pad, oh, ow)
					got := MustFromSlice(nanScratch(len(want)), c*k*k, oh*ow)
					if err := Im2ColInto(got, in, k, k, stride, pad); err != nil {
						t.Fatal(err)
					}
					for i, v := range want {
						if math.Float64bits(got.data[i]) != math.Float64bits(v) {
							t.Fatalf("im2col s=%d k=%d pad=%d %dx%d: col %d = %v, want %v", stride, k, pad, h, w, i, got.data[i], v)
						}
					}

					cols := MustFromSlice(make([]float64, len(want)), c*k*k, oh*ow)
					for i := range cols.data {
						cols.data[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(60)-30))
					}
					wantBack := make([]float64, c*h*w)
					oracleCol2Im(wantBack, cols.data, c, h, w, k, stride, pad, oh, ow)
					back := MustFromSlice(nanScratch(c*h*w), c, h, w)
					if err := Col2ImInto(back, cols, k, k, stride, pad); err != nil {
						t.Fatal(err)
					}
					for i, v := range wantBack {
						if math.Float64bits(back.data[i]) != math.Float64bits(v) {
							t.Fatalf("col2im s=%d k=%d pad=%d %dx%d: pixel %d = %v, want %v", stride, k, pad, h, w, i, back.data[i], v)
						}
					}
				}
			}
		}
	}
}
