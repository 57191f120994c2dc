package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBasisOrthonormal(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 25, 100} {
		c := Basis(n)
		// C·Cᵀ should be the identity.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for x := 0; x < n; x++ {
					s += c[i*n+x] * c[j*n+x]
				}
				want := 0.0
				if i == j {
					want = 1.0
				}
				if !almostEqual(s, want, 1e-10) {
					t.Fatalf("n=%d: basis row %d·row %d = %v, want %v", n, i, j, s, want)
				}
			}
		}
	}
}

func TestBasisPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	Basis(0)
}

func TestForward1DDC(t *testing.T) {
	// Constant signal has all energy in the DC coefficient.
	src := []float64{3, 3, 3, 3}
	out := forward1D(src)
	if !almostEqual(out[0], 6, 1e-12) { // sqrt(1/4)*12 = 6
		t.Fatalf("DC = %v, want 6", out[0])
	}
	for i := 1; i < 4; i++ {
		if !almostEqual(out[i], 0, 1e-12) {
			t.Fatalf("AC[%d] = %v, want 0", i, out[i])
		}
	}
}

func TestRoundTrip1D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 16, 50} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		back := inverse1D(forward1D(src))
		for i := range src {
			if !almostEqual(back[i], src[i], 1e-10) {
				t.Fatalf("n=%d roundtrip failed at %d", n, i)
			}
		}
	}
}

// Property: Parseval — orthonormal DCT preserves energy.
func TestParseval1D(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		src := make([]float64, n)
		e1 := 0.0
		for i := range src {
			src[i] = r.NormFloat64()
			e1 += src[i] * src[i]
		}
		out := forward1D(src)
		e2 := 0.0
		for _, v := range out {
			e2 += v * v
		}
		return almostEqual(e1, e2, 1e-9*(1+e1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip2D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{1, 1}, {4, 4}, {8, 8}, {5, 7}, {25, 25}} {
		h, w := dims[0], dims[1]
		src := make([]float64, h*w)
		for i := range src {
			src[i] = rng.Float64()
		}
		coef, err := forward2D(src, h, w)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Inverse2D(coef, h, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if !almostEqual(back[i], src[i], 1e-10) {
				t.Fatalf("%dx%d roundtrip failed at %d: %v vs %v", h, w, i, back[i], src[i])
			}
		}
	}
}

func TestParseval2D(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, w := 1+r.Intn(12), 1+r.Intn(12)
		src := make([]float64, h*w)
		e1 := 0.0
		for i := range src {
			src[i] = r.NormFloat64()
			e1 += src[i] * src[i]
		}
		coef, err := forward2D(src, h, w)
		if err != nil {
			return false
		}
		e2 := 0.0
		for _, v := range coef {
			e2 += v * v
		}
		return almostEqual(e1, e2, 1e-9*(1+e1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForward2DSeparability(t *testing.T) {
	// The 2-D DCT of an outer product is the outer product of the 1-D DCTs.
	rng := rand.New(rand.NewSource(3))
	h, w := 6, 9
	fy := make([]float64, h)
	fx := make([]float64, w)
	for i := range fy {
		fy[i] = rng.NormFloat64()
	}
	for i := range fx {
		fx[i] = rng.NormFloat64()
	}
	src := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src[y*w+x] = fy[y] * fx[x]
		}
	}
	coef, err := forward2D(src, h, w)
	if err != nil {
		t.Fatal(err)
	}
	cy := forward1D(fy)
	cx := forward1D(fx)
	for u := 0; u < h; u++ {
		for v := 0; v < w; v++ {
			if !almostEqual(coef[u*w+v], cy[u]*cx[v], 1e-10) {
				t.Fatalf("separability failed at (%d,%d)", u, v)
			}
		}
	}
}

func TestForward2DErrors(t *testing.T) {
	if _, err := forward2D(make([]float64, 5), 2, 2); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := forward2D(nil, 0, 0); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, err := Inverse2D(make([]float64, 5), 2, 2); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Inverse2D(nil, -1, 4); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestForwardTruncated2DMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h, w := 10, 10
	src := make([]float64, h*w)
	for i := range src {
		src[i] = rng.Float64()
	}
	full, err := forward2D(src, h, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 6, 10} {
		trunc, err := forwardTruncated2D(src, h, w, k, k)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				if !almostEqual(trunc[u*k+v], full[u*w+v], 1e-10) {
					t.Fatalf("k=%d: truncated (%d,%d) = %v, full = %v", k, u, v, trunc[u*k+v], full[u*w+v])
				}
			}
		}
	}
}

func TestForwardTruncated2DErrors(t *testing.T) {
	src := make([]float64, 16)
	if _, err := forwardTruncated2D(src, 4, 4, 5, 2); err == nil {
		t.Fatal("expected truncation > block error")
	}
	if _, err := forwardTruncated2D(src, 4, 4, 0, 2); err == nil {
		t.Fatal("expected non-positive truncation error")
	}
	if _, err := forwardTruncated2D(src, 5, 4, 2, 2); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestZigZagOrder8x8(t *testing.T) {
	// The canonical JPEG 8×8 zig-zag prefix.
	order := ZigZagOrder(8, 8)
	wantPrefix := []int{0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4}
	for i, w := range wantPrefix {
		if order[i] != w {
			t.Fatalf("zigzag[%d] = %d, want %d", i, order[i], w)
		}
	}
	if order[63] != 63 {
		t.Fatalf("zigzag last = %d, want 63", order[63])
	}
}

// Property: zig-zag order is a bijection on 0..h*w-1.
func TestZigZagIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, w := 1+r.Intn(12), 1+r.Intn(12)
		order := ZigZagOrder(h, w)
		if len(order) != h*w {
			return false
		}
		seen := make([]bool, h*w)
		for _, idx := range order {
			if idx < 0 || idx >= h*w || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: zig-zag visits anti-diagonals in non-decreasing u+v order.
func TestZigZagFrequencyMonotone(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}, {3, 7}, {10, 2}} {
		h, w := dims[0], dims[1]
		order := ZigZagOrder(h, w)
		prev := -1
		for _, idx := range order {
			s := idx/w + idx%w
			if s < prev {
				t.Fatalf("%dx%d: anti-diagonal decreased (%d after %d)", h, w, s, prev)
			}
			prev = s
		}
	}
}

func TestZigZagFlattenRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, w := 1+r.Intn(10), 1+r.Intn(10)
		block := make([]float64, h*w)
		for i := range block {
			block[i] = r.NormFloat64()
		}
		scan, err := ZigZagFlatten(block, h, w)
		if err != nil {
			return false
		}
		back, err := ZigZagUnflatten(scan, h, w)
		if err != nil {
			return false
		}
		for i := range block {
			if back[i] != block[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagTruncatedUnflatten(t *testing.T) {
	scan := []float64{1, 2, 3} // first three zig-zag entries of a 3x3 block
	back, err := ZigZagUnflatten(scan, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// order: (0,0), (0,1), (1,0), ...
	if back[0] != 1 || back[1] != 2 || back[3] != 3 {
		t.Fatalf("unflatten: %v", back)
	}
	for _, idx := range []int{2, 4, 5, 6, 7, 8} {
		if back[idx] != 0 {
			t.Fatalf("expected zero-fill at %d: %v", idx, back)
		}
	}
}

func TestZigZagErrors(t *testing.T) {
	if _, err := ZigZagFlatten(make([]float64, 5), 2, 2); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := ZigZagUnflatten(make([]float64, 10), 3, 3); err == nil {
		t.Fatal("expected overlong scan error")
	}
}

func TestCoefficientCorner(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{8, 1, 1},
		{8, 2, 2},  // (0,1)
		{8, 3, 2},  // (1,0)
		{8, 6, 3},  // up to (0,2)..(2,0)
		{8, 10, 4}, // fourth anti-diagonal reaches (3,0)
		{8, 64, 8},
		{8, 100, 8}, // clamped
		{8, 0, 1},
	}
	for _, c := range cases {
		if got := CoefficientCorner(c.n, c.k); got != c.want {
			t.Errorf("CoefficientCorner(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// Property: the first k zig-zag indices all fall inside the reported corner.
func TestCoefficientCornerCovers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		k := 1 + r.Intn(n*n)
		s := CoefficientCorner(n, k)
		order := ZigZagOrder(n, n)
		for i := 0; i < k; i++ {
			u, v := order[i]/n, order[i]%n
			if u >= s || v >= s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationEnergyDominance(t *testing.T) {
	// For a smooth (low-frequency) image, most energy must live in the first
	// few zig-zag coefficients — the property the paper's Figure 1 relies on.
	h, w := 16, 16
	src := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src[y*w+x] = math.Cos(math.Pi*float64(x)/float64(w)) + 0.5*math.Sin(math.Pi*float64(y)/float64(h))
		}
	}
	coef, err := forward2D(src, h, w)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ZigZagFlatten(coef, h, w)
	if err != nil {
		t.Fatal(err)
	}
	total, head := 0.0, 0.0
	for i, v := range scan {
		total += v * v
		if i < 32 {
			head += v * v
		}
	}
	if head < 0.95*total {
		t.Fatalf("first 32 coefficients hold %.1f%% of energy, want >= 95%%", 100*head/total)
	}
}
