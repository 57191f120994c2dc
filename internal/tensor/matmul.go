package tensor

import "fmt"

// sparseSkipThreshold is the zero fraction of the streamed operand above
// which the row-skipping kernel beats the unrolled dense kernel. The dense
// kernel amortizes the output row's load/store traffic over four
// accumulation rows, running ~2× faster than the row-at-a-time form on
// dense coefficients, so the zero-skip only pays once more than ~55–60% of
// the rows vanish (deeply ReLU-sparsified gradients). The scan that
// measures density touches each element of one operand exactly once — 1/n
// of the multiply's work — so gating is cheap at conv-sized n. Calibrated
// with BenchmarkMatMulInto* on dense and post-ReLU-like operands (the
// reference product in ref_test.go shares this kernel).
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

// matmulBiasInto writes a(m×k)·b(k×n) into out using an ikj loop order so
// the inner loop streams both b and out rows. Dense coefficient rows take
// a 4-way unrolled kernel; when a is mostly zeros (a density scan
// decides), a row-skipping variant takes over. The two variants group
// additions differently, so results can differ in the last bits between
// *different inputs*, but the gate is a pure function of the data — the
// same operands always take the same path, keeping every caller
// bit-reproducible. When bias is non-nil, bias[i] is added to every
// element of output row i as soon as the row's dot products complete, so
// each element is (full dot product) + bias, exactly the sum the two-pass
// form produces.
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

// Im2ColInto unfolds a (C, H, W) input into the preallocated
// (C*KH*KW, OH*OW) matrix of receptive-field columns for a convolution
// with the given kernel size, stride and zero padding. Column j holds the
// flattened patch the kernel sees at output position j (row-major over
// the output grid), so a convolution becomes one matrix product: weights
// (OC, C*KH*KW) times out.
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

// Col2ImInto folds a (C*KH*KW, OH*OW) column matrix back into the
// preallocated (C, H, W) tensor out, zeroing it first and accumulating
// overlapping contributions. It is the adjoint of Im2ColInto and
// back-propagates gradients through a convolution.
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
