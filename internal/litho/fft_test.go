package litho

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := map[int]bool{1: true, 2: true, 4: true, 1024: true, 0: false, 3: false, -4: false, 6: false}
	for n, want := range cases {
		if IsPow2(n) != want {
			t.Errorf("IsPow2(%d) = %v, want %v", n, IsPow2(n), want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 100: 128}
	for n, want := range cases {
		if NextPow2(n) != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, NextPow2(n), want)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of an impulse is all-ones.
	x := []complex128{1, 0, 0, 0}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse DFT[%d] = %v, want 1", i, v)
		}
	}
	// DFT of a constant is an impulse at DC.
	y := []complex128{1, 1, 1, 1}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-4) > 1e-12 {
		t.Fatalf("DC = %v, want 4", y[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, y[i])
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 32} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := make([]complex128, n)
		for k := 0; k < n; k++ {
			s := complex(0, 0)
			for j := 0; j < n; j++ {
				angle := -2 * math.Pi * float64(j*k) / float64(n)
				s += x[j] * cmplx.Exp(complex(0, angle))
			}
			want[k] = s
		}
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9 {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Fatal("expected error for non-power-of-two length")
	}
	if err := IFFT(make([]complex128, 6)); err == nil {
		t.Fatal("expected error for non-power-of-two length")
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Fatal("FFT of empty should be a no-op")
	}
	x := []complex128{5 + 2i}
	if err := FFT(x); err != nil || x[0] != 5+2i {
		t.Fatal("FFT of length 1 should be identity")
	}
}

// Property: IFFT(FFT(x)) == x.
func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(8))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			orig[i] = x[i]
		}
		if err := FFT(x); err != nil {
			return false
		}
		if err := IFFT(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — sum|x|² == sum|X|²/n.
func TestParseval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(7))
		x := make([]complex128, n)
		e1 := 0.0
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			e1 += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		e2 := 0.0
		for _, v := range x {
			e2 += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(e1-e2/float64(n)) < 1e-8*(1+e1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — FFT(a·x + b·y) == a·FFT(x) + b·FFT(y).
func TestLinearity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(6))
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), 0)
			y[i] = complex(r.NormFloat64(), 0)
		}
		a, b := complex(r.NormFloat64(), 0), complex(r.NormFloat64(), 0)
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + b*y[i]
		}
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		if FFT(mix) != nil || FFT(fx) != nil || FFT(fy) != nil {
			return false
		}
		for i := range mix {
			if cmplx.Abs(mix[i]-(a*fx[i]+b*fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, w := 8, 16
	x := make([]complex128, h*w)
	orig := make([]complex128, h*w)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		orig[i] = x[i]
	}
	if err := FFT2D(x, h, w); err != nil {
		t.Fatal(err)
	}
	if err := IFFT2D(x, h, w); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D roundtrip failed at %d", i)
		}
	}
}

func TestFFT2DErrors(t *testing.T) {
	if err := FFT2D(make([]complex128, 12), 3, 4); err == nil {
		t.Fatal("expected non-pow2 error")
	}
	if err := FFT2D(make([]complex128, 5), 2, 4); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func naiveConvolve2D(a []float64, ah, aw int, b []float64, bh, bw int) []float64 {
	oh, ow := ah+bh-1, aw+bw-1
	out := make([]float64, oh*ow)
	for ay := 0; ay < ah; ay++ {
		for ax := 0; ax < aw; ax++ {
			av := a[ay*aw+ax]
			if av == 0 {
				continue
			}
			for by := 0; by < bh; by++ {
				for bx := 0; bx < bw; bx++ {
					out[(ay+by)*ow+(ax+bx)] += av * b[by*bw+bx]
				}
			}
		}
	}
	return out
}

func TestConvolve2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		ah, aw := 2+rng.Intn(10), 2+rng.Intn(10)
		bh, bw := 1+rng.Intn(5), 1+rng.Intn(5)
		a := make([]float64, ah*aw)
		b := make([]float64, bh*bw)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, oh, ow, err := Convolve2D(a, ah, aw, b, bh, bw)
		if err != nil {
			t.Fatal(err)
		}
		if oh != ah+bh-1 || ow != aw+bw-1 {
			t.Fatalf("output size %dx%d", oh, ow)
		}
		want := naiveConvolve2D(a, ah, aw, b, bh, bw)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: conv mismatch at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestConvolve2DErrors(t *testing.T) {
	if _, _, _, err := Convolve2D(make([]float64, 3), 2, 2, make([]float64, 1), 1, 1); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, _, _, err := Convolve2D(nil, 0, 0, make([]float64, 1), 1, 1); err == nil {
		t.Fatal("expected empty operand error")
	}
}

func TestConvolveSame2DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ah, aw := 6, 9
	a := make([]float64, ah*aw)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	// 3x3 kernel with 1 at centre: same-convolution is the identity.
	k := make([]float64, 9)
	k[4] = 1
	got, err := ConvolveSame2D(a, ah, aw, k, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(got[i]-a[i]) > 1e-9 {
			t.Fatalf("identity kernel mismatch at %d", i)
		}
	}
}

func TestConvolveSame2DShift(t *testing.T) {
	// Kernel with 1 off-centre shifts the image.
	a := make([]float64, 16) // 4x4
	a[5] = 1                 // (y=1,x=1)
	k := make([]float64, 9)
	k[5] = 1 // (y=1, x=2): one right of centre
	got, err := ConvolveSame2D(a, 4, 4, k, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[6]-1) > 1e-9 { // shifted to (1,2)
		t.Fatalf("shift conv: %v", got)
	}
}
