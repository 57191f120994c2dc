package tensor

import "fmt"

// The products below have only test callers: production multiplies on the
// tile kernels (MatMulTiles, MatMulBTTiles, MatMulBTAddTiles, DotTile) and
// MatVecInto's row chains. They stay here as the references those are
// tested against.

// MatMulInto computes out = a · b for rank-2 operands, reusing out's buffer.
func MatMulInto(out, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		return fmt.Errorf("tensor: matmulinto needs rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		return fmt.Errorf("tensor: matmulinto shape mismatch %v x %v -> %v", a.shape, b.shape, out.shape)
	}
	matmulInto(out.data, a.data, b.data, m, k, n)
	return nil
}

// matMul returns a·b in a new tensor, through MatMulInto.
func matMul(a, b *Tensor) (*Tensor, error) {
	out := New(1, 1)
	if a.Rank() == 2 && b.Rank() == 2 {
		out = New(a.Dim(0), b.Dim(1))
	}
	return out, MatMulInto(out, a, b)
}

// matmulInto writes a(m×k)·b(k×n) into out: matmulBiasInto without a
// bias.
func matmulInto(out, a, b []float64, m, k, n int) {
	matmulBiasInto(out, a, b, nil, m, k, n)
}

// matmulBiasInto writes a(m×k)·b(k×n) into out using an ikj loop order so
// the inner loop streams both b and out rows, the coefficient dimension
// 4-way unrolled: each element starts at +0 and gains one group sum
// a[p]·b[p] + a[p+1]·b[p+1] + a[p+2]·b[p+2] + a[p+3]·b[p+3] per four
// coefficients, then the k mod 4 remaining products one at a time. When
// bias is non-nil, bias[i] is added to every element of output row i once
// the row's dot products are complete, so each element is (full dot
// product) + bias, exactly the sum the two-pass form produces. This is the
// per-element order the tile kernels keep.
func matmulBiasInto(out, a, b, bias []float64, m, k, n int) {
	for i := range out[:m*n] {
		out[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		p := 0
		for ; p+3 < k; p += 4 {
			av0, av1, av2, av3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			b0 := b[p*n : (p+1)*n]
			b1 := b[(p+1)*n : (p+2)*n]
			b2 := b[(p+2)*n : (p+3)*n]
			b3 := b[(p+3)*n : (p+4)*n]
			for j := range orow {
				orow[j] += float64(av0*b0[j]) + float64(av1*b1[j]) + float64(av2*b2[j]) + float64(av3*b3[j])
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
		if bias != nil {
			bv := bias[i]
			for j := range orow {
				orow[j] += bv
			}
		}
	}
}

// MatMulBiasInto computes out = a · b and adds bias[i] to every element of
// output row i, reusing out's buffer. a is (m, k), b is (k, n), bias is
// rank-1 of length m. The bias add rides the matmul's per-row epilogue
// rather than a second pass over the output, but each element's value is
// bit-identical to MatMulInto followed by a row-wise bias broadcast. It is
// the reference the tile product of the convolution forward path,
// MatMulTiles, is tested against.
func MatMulBiasInto(out, a, b, bias *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 || bias.Rank() != 1 {
		return fmt.Errorf("tensor: matmulbiasinto needs rank (2,2,1) operands into rank-2 out")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n || bias.shape[0] != m {
		return fmt.Errorf("tensor: matmulbiasinto shape mismatch %v x %v + %v -> %v",
			a.shape, b.shape, bias.shape, out.shape)
	}
	matmulBiasInto(out.data, a.data, b.data, bias.data, m, k, n)
	return nil
}

// matVecLoop writes a(m×k)·x into out one row at a time, each element one
// chain s = +0; s += a[i][j]·x[j] for j ascending: the loop MatVecInto ran
// before it advanced four rows per pass, kept as its reference.
func matVecLoop(out, a, x []float64, m, k int) {
	for i := 0; i < m; i++ {
		row := a[i*k : (i+1)*k]
		s := 0.0
		for j, v := range row {
			s += float64(v * x[j])
		}
		out[i] = s
	}
}

// transpose returns a new tensor holding the transpose of a rank-2 tensor.
func transpose(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("tensor: transpose needs rank-2 operand, got %v", a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}

// MatMulATInto computes out = aᵀ · b for a (k, m) and b (k, n) without
// materializing the transpose; out must be (m, n). It is the reference the
// convolution input gradient, MatMulTiles over a transposed copy of a, is
// tested against.
func MatMulATInto(out, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		return fmt.Errorf("tensor: matmulATinto needs rank-2 operands")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		return fmt.Errorf("tensor: matmulATinto shape mismatch %vᵀ x %v -> %v", a.shape, b.shape, out.shape)
	}
	od := out.data
	for i := range od[:m*n] {
		od[i] = 0
	}
	// 4-way unrolled over k, in matmulBiasInto's per-element order.
	p := 0
	for ; p+3 < k; p += 4 {
		a0 := a.data[p*m : (p+1)*m]
		a1 := a.data[(p+1)*m : (p+2)*m]
		a2 := a.data[(p+2)*m : (p+3)*m]
		a3 := a.data[(p+3)*m : (p+4)*m]
		b0 := b.data[p*n : (p+1)*n]
		b1 := b.data[(p+1)*n : (p+2)*n]
		b2 := b.data[(p+2)*n : (p+3)*n]
		b3 := b.data[(p+3)*n : (p+4)*n]
		for i := 0; i < m; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			orow := od[i*n : (i+1)*n]
			for j := range orow {
				orow[j] += float64(av0*b0[j]) + float64(av1*b1[j]) + float64(av2*b2[j]) + float64(av3*b3[j])
			}
		}
	}
	for ; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			orow := od[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return nil
}

// MatMulBTAddInto computes out += a · bᵀ for a (m, k) and b (n, k) without
// materializing the transpose; out must be (m, n). It is the reference the
// convolution weight gradient, MatMulBTAddTiles, is tested against.
func MatMulBTAddInto(out, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		return fmt.Errorf("tensor: matmulBTaddinto needs rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || out.shape[0] != m || out.shape[1] != n {
		return fmt.Errorf("tensor: matmulBTaddinto shape mismatch %v x %vᵀ -> %v", a.shape, b.shape, out.shape)
	}
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += float64(av * brow[p])
			}
			orow[j] += s
		}
	}
	return nil
}
