// Package tensor provides dense multi-dimensional float64 arrays and the
// small set of operations the rest of the framework is built on: shaped
// element access, arithmetic, matrix products, and the im2col transform used
// by convolution layers.
//
// A Tensor is a contiguous row-major buffer plus a shape. Shapes follow the
// channels-first convention used throughout the repository: a feature tensor
// is (C, H, W) and a batch is (N, C, H, W).
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major array of float64 with an explicit shape.
// The zero value is an empty tensor with no dimensions.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative; a zero dimension yields an empty tensor.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly prod(shape) elements.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// MustFromSlice is FromSlice that panics on error; for use with literals in
// tests and examples.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying buffer. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's buffer with a new shape of the same
// total size.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// MustReshape is Reshape that panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// offset computes the flat index for the given multi-index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Add stores t + o into t element-wise. Shapes must match exactly.
func (t *Tensor) Add(o *Tensor) error {
	if !SameShape(t, o) {
		return fmt.Errorf("tensor: add shape mismatch %v vs %v", t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// Sub stores t - o into t element-wise.
func (t *Tensor) Sub(o *Tensor) error {
	if !SameShape(t, o) {
		return fmt.Errorf("tensor: sub shape mismatch %v vs %v", t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

// Mul stores t * o (Hadamard product) into t.
func (t *Tensor) Mul(o *Tensor) error {
	if !SameShape(t, o) {
		return fmt.Errorf("tensor: mul shape mismatch %v vs %v", t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] *= v
	}
	return nil
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AddScaled stores t + s*o into t; the fused update used by optimizers.
func (t *Tensor) AddScaled(s float64, o *Tensor) error {
	if !SameShape(t, o) {
		return fmt.Errorf("tensor: addscaled shape mismatch %v vs %v", t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] += float64(s * v)
	}
	return nil
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; it panics on an empty tensor.
func (t *Tensor) Min() float64 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) (float64, error) {
	if len(t.data) != len(o.data) {
		return 0, fmt.Errorf("tensor: dot length mismatch %d vs %d", len(t.data), len(o.data))
	}
	s := 0.0
	for i, v := range t.data {
		s += float64(v * o.data[i])
	}
	return s, nil
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape and a few leading values).
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if len(t.data) > 8 {
		b.WriteString(" ...")
	}
	b.WriteString("]")
	return b.String()
}
