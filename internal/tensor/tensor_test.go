package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	for i, v := range tt.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if tt.Rank() != 3 || tt.Dim(0) != 2 || tt.Dim(1) != 3 || tt.Dim(2) != 4 {
		t.Fatalf("bad shape: %v", tt.Shape())
	}
}

func TestNewEmptyDimension(t *testing.T) {
	tt := New(0, 5)
	if tt.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tt.Len())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	tt, err := FromSlice(data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tt.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", tt.At(1, 2))
	}
	if _, err := FromSlice(data, 2, 2); err == nil {
		t.Fatal("expected error for mismatched length")
	}
	if _, err := FromSlice(data, -2, -3); err == nil {
		t.Fatal("expected error for negative shape")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4, 5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a, b, c := rng.Intn(3), rng.Intn(4), rng.Intn(5)
		v := rng.NormFloat64()
		tt.Set(v, a, b, c)
		if tt.At(a, b, c) != v {
			t.Fatalf("roundtrip failed at (%d,%d,%d)", a, b, c)
		}
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	tt.At(2, 0)
}

func TestRowMajorLayout(t *testing.T) {
	tt := New(2, 3)
	tt.Set(7, 1, 2)
	if tt.Data()[5] != 7 {
		t.Fatalf("expected row-major layout: data[5]=%v", tt.Data()[5])
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("clone mutated original")
	}
	sh := a.Shape()
	sh[0] = 99
	if a.Dim(0) != 3 {
		t.Fatal("Shape() exposed internal slice")
	}
}

func TestReshapeSharesBuffer(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b, err := a.Reshape(4)
	if err != nil {
		t.Fatal(err)
	}
	b.Set(42, 3)
	if a.At(1, 1) != 42 {
		t.Fatal("reshape should share the buffer")
	}
	if _, err := a.Reshape(3); err == nil {
		t.Fatal("expected error reshaping to wrong size")
	}
}

func TestArithmetic(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := MustFromSlice([]float64{5, 6, 7, 8}, 2, 2)
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 8, 10, 12}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("add: got %v want %v", a.Data(), want)
		}
	}
	if err := a.Sub(b); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data() {
		if v != float64(i+1) {
			t.Fatalf("sub: got %v", a.Data())
		}
	}
}

func TestArithmeticShapeMismatch(t *testing.T) {
	a := New(2, 2)
	b := New(4)
	if err := a.Add(b); err == nil {
		t.Fatal("Add: expected shape mismatch error")
	}
	if err := a.Sub(b); err == nil {
		t.Fatal("Sub: expected shape mismatch error")
	}
	if err := a.AddScaled(2, b); err == nil {
		t.Fatal("AddScaled: expected shape mismatch error")
	}
}

func TestAddScaled(t *testing.T) {
	a := MustFromSlice([]float64{1, 1}, 2)
	b := MustFromSlice([]float64{2, 3}, 2)
	if err := a.AddScaled(-0.5, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0) != 0 || a.At(1) != -0.5 {
		t.Fatalf("addscaled: got %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	a := MustFromSlice([]float64{3, -1, 4, 1.5}, 4)
	if a.Max() != 4 {
		t.Fatalf("Max = %v", a.Max())
	}
}

func TestString(t *testing.T) {
	a := New(10)
	s := a.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestMatMul(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("matmul: got %v want %v", c.Data(), want)
		}
	}
}

func TestMatMulErrors(t *testing.T) {
	if _, err := matMul(New(2, 3), New(2, 3)); err == nil {
		t.Fatal("expected inner-dim mismatch error")
	}
	if _, err := matMul(New(2), New(2, 3)); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(4, 4)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c, err := matMul(a, id)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range c.Data() {
		if !almostEqual(v, a.Data()[i], 1e-12) {
			t.Fatal("A·I != A")
		}
	}
}

func TestMatMulInto(t *testing.T) {
	a := MustFromSlice([]float64{1, 0, 0, 1}, 2, 2)
	b := MustFromSlice([]float64{3, 4, 5, 6}, 2, 2)
	out := New(2, 2)
	out.Fill(99) // must be overwritten
	if err := MatMulInto(out, a, b); err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != b.Data()[i] {
			t.Fatalf("matmulinto: got %v", out.Data())
		}
	}
	if err := MatMulInto(New(3, 3), a, b); err == nil {
		t.Fatal("expected output shape error")
	}
}

func TestTranspose(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at, err := transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", at.Data())
	}
	if _, err := transpose(New(2)); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestMatVec(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := MustFromSlice([]float64{1, 0, -1}, 3)
	y := New(2)
	y.Fill(99) // must be overwritten
	if err := MatVecInto(y, a, x); err != nil {
		t.Fatal(err)
	}
	if y.At(0) != -2 || y.At(1) != -2 {
		t.Fatalf("matvec: got %v", y.Data())
	}
	if err := MatVecInto(y, a, New(2)); err == nil {
		t.Fatal("expected dim error")
	}
	if err := MatVecInto(New(3), a, x); err == nil {
		t.Fatal("expected output shape error")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed) + rng.Int63()))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b := New(m, k), New(k, n)
		for i := range a.Data() {
			a.Data()[i] = r.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = r.NormFloat64()
		}
		ab, _ := matMul(a, b)
		abT, _ := transpose(ab)
		aT, _ := transpose(a)
		bT, _ := transpose(b)
		bTaT, _ := matMul(bT, aT)
		for i := range abT.Data() {
			if !almostEqual(abT.Data()[i], bTaT.Data()[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) = A·B + A·C.
func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a, b, c := New(m, k), New(k, n), New(k, n)
		for i := range a.Data() {
			a.Data()[i] = r.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = r.NormFloat64()
		}
		for i := range c.Data() {
			c.Data()[i] = r.NormFloat64()
		}
		bc := b.Clone()
		_ = bc.Add(c)
		lhs, _ := matMul(a, bc)
		ab, _ := matMul(a, b)
		ac, _ := matMul(a, c)
		_ = ab.Add(ac)
		for i := range lhs.Data() {
			if !almostEqual(lhs.Data()[i], ab.Data()[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
