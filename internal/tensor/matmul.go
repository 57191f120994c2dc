package tensor

import "fmt"

// MatMul returns a new (m, n) tensor holding the product of a (m, k) and
// b (k, n). Both operands must be rank-2.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("tensor: matmul needs rank-2 operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: matmul inner dimension mismatch %v x %v", a.shape, b.shape)
	}
	out := New(m, n)
	matmulInto(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// MatMulInto computes out = a · b for rank-2 operands, reusing out's buffer.
//
//hsd:hotpath
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

// sparseSkipThreshold is the zero fraction of the streamed operand above
// which the row-skipping kernel beats the unrolled dense kernel. The dense
// kernel amortizes the output row's load/store traffic over four
// accumulation rows, running ~2× faster than the row-at-a-time form on
// dense coefficients, so the zero-skip only pays once more than ~55–60% of
// the rows vanish (deeply ReLU-sparsified gradients). The scan that
// measures density touches each element of one operand exactly once — 1/n
// of the multiply's work — so gating is cheap at conv-sized n. Calibrated
// with BenchmarkMatMulInto* on dense and post-ReLU-like operands.
const sparseSkipThreshold = 0.6

// sparseWorthwhile reports whether a's zero fraction clears the threshold:
// zeros > ⌊0.6·n⌋ over n elements, which for an integer count is exactly
// the float test zeros > 0.6·n. Counted as nonzeros < n − ⌊0.6·n⌋, it
// returns as soon as the nonzeros reach that bound, so a dense operand —
// every trained conv's weights — is decided after about 40% of one scan.
func sparseWorthwhile(a []float64) bool {
	limit := len(a) - int(sparseSkipThreshold*float64(len(a)))
	nonzeros := 0
	for _, v := range a {
		if v != 0 {
			nonzeros++
			if nonzeros == limit {
				return false
			}
		}
	}
	return nonzeros < limit
}

// SparseSkip reports whether the package's matmul kernels would take the
// row-skipping sparse path for coefficient data a. It is exported so
// alternative kernels over the same operands (the fused inference engine)
// can replicate the gate exactly — the gate is part of the bit-for-bit
// result contract, because the sparse and dense variants group additions
// differently.
func SparseSkip(a []float64) bool { return sparseWorthwhile(a) }

// matmulInto writes a(m×k)·b(k×n) into out using an ikj loop order so the
// inner loop streams both b and out rows; this is the usual cache-friendly
// pure-Go kernel. Dense coefficient rows take a 4-way unrolled kernel;
// when a is mostly zeros (a density scan decides), a row-skipping variant
// takes over. The two variants group additions differently, so results can
// differ in the last bits between *different inputs*, but the gate is a
// pure function of the data — the same operands always take the same path,
// keeping every caller bit-reproducible.
//
//hsd:noalloc
func matmulInto(out, a, b []float64, m, k, n int) {
	matmulBiasInto(out, a, b, nil, m, k, n)
}

// matmulBiasInto is matmulInto with an optional per-row bias epilogue: when
// bias is non-nil, bias[i] is added to every element of output row i as
// soon as the row's dot products complete — while the row is still hot —
// instead of in a second pass over the whole output. Each element's value
// is (full dot product) + bias, exactly the sum the two-pass form produces,
// so results are bit-identical to matmul-then-broadcast.
//
//hsd:hotpath
//hsd:noalloc
func matmulBiasInto(out, a, b, bias []float64, m, k, n int) {
	for i := range out[:m*n] {
		out[i] = 0
	}
	if sparseWorthwhile(a[:m*k]) {
		for i := 0; i < m; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			for p, av := range arow {
				if av == 0 {
					continue
				}
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
		return
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
//
//hsd:hotpath
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

// Transpose returns a new tensor holding the transpose of a rank-2 tensor.
func Transpose(a *Tensor) (*Tensor, error) {
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

// MatVec returns a·x for a rank-2 a (m, k) and rank-1 x (k).
func MatVec(a, x *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || x.Rank() != 1 {
		return nil, fmt.Errorf("tensor: matvec needs (2,1)-rank operands, got %v and %v", a.shape, x.shape)
	}
	m, k := a.shape[0], a.shape[1]
	if x.shape[0] != k {
		return nil, fmt.Errorf("tensor: matvec dimension mismatch %v x %v", a.shape, x.shape)
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		s := 0.0
		for j, v := range row {
			s += float64(v * x.data[j])
		}
		out.data[i] = s
	}
	return out, nil
}

// MatVecInto computes out = a·x for a rank-2 a (m, k) and rank-1 x (k),
// reusing out's buffer (rank-1, length m). Used by the fully connected
// layer's allocation-free forward path.
//
//hsd:hotpath
func MatVecInto(out, a, x *Tensor) error {
	if a.Rank() != 2 || x.Rank() != 1 || out.Rank() != 1 {
		return fmt.Errorf("tensor: matvecinto needs (2,1,1)-rank operands, got %v, %v, %v",
			a.shape, x.shape, out.shape)
	}
	m, k := a.shape[0], a.shape[1]
	if x.shape[0] != k || out.shape[0] != m {
		return fmt.Errorf("tensor: matvecinto shape mismatch %v x %v -> %v", a.shape, x.shape, out.shape)
	}
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		s := 0.0
		for j, v := range row {
			s += float64(v * x.data[j])
		}
		out.data[i] = s
	}
	return nil
}

// MatMulATInto computes out = aᵀ · b for a (k, m) and b (k, n) without
// materializing the transpose; out must be (m, n). It is the reference the
// convolution input gradient, MatMulTiles over a transposed copy of a, is
// tested against.
//
//hsd:hotpath
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
	if sparseWorthwhile(a.data[:k*m]) {
		for p := 0; p < k; p++ {
			arow := a.data[p*m : (p+1)*m]
			brow := b.data[p*n : (p+1)*n]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := od[i*n : (i+1)*n]
				for j, bv := range brow {
					orow[j] += float64(av * bv)
				}
			}
		}
		return nil
	}
	// Dense path: 4-way unrolled over k, mirroring matmulInto's dense
	// kernel (same calibration, same determinism argument).
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
//
//hsd:hotpath
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

// Im2ColInto is Im2Col writing into a preallocated (C*KH*KW, OH*OW) tensor.
//
//hsd:hotpath
func Im2ColInto(out, in *Tensor, kh, kw, stride, pad int) error {
	if in.Rank() != 3 || out.Rank() != 2 {
		return fmt.Errorf("tensor: im2colinto rank mismatch")
	}
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 || out.shape[0] != c*kh*kw || out.shape[1] != oh*ow {
		return fmt.Errorf("tensor: im2colinto geometry mismatch")
	}
	im2colInto(out.data, in.data, c, h, w, kh, kw, stride, pad, oh, ow)
	return nil
}

// Col2ImInto is Col2Im accumulating into a preallocated zeroed (C, H, W)
// tensor. The destination is zeroed first.
func Col2ImInto(out, cols *Tensor, kh, kw, stride, pad int) error {
	if out.Rank() != 3 || cols.Rank() != 2 {
		return fmt.Errorf("tensor: col2iminto rank mismatch")
	}
	c, h, w := out.shape[0], out.shape[1], out.shape[2]
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 || cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		return fmt.Errorf("tensor: col2iminto geometry mismatch")
	}
	out.Zero()
	col2imInto(out.data, cols.data, c, h, w, kh, kw, stride, pad, oh, ow)
	return nil
}
