package tensor

import "fmt"

// MatVecInto computes out = a·x for a rank-2 a (m, k) and rank-1 x (k),
// reusing out's buffer (rank-1, length m). Used by the fully connected
// layer's allocation-free forward path. Each out[i] is one chain,
// s = +0; s += a[i][j]·x[j] for j ascending. Four rows advance together
// per pass over x, each on its own chain, so one load of x[j] feeds four
// independent adds; the m mod 4 rows left run alone.
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
	xd := x.data[:k]
	i := 0
	for ; i+3 < m; i += 4 {
		a0, a1 := a.data[i*k:i*k+k], a.data[(i+1)*k:(i+1)*k+k]
		a2, a3 := a.data[(i+2)*k:(i+2)*k+k], a.data[(i+3)*k:(i+3)*k+k]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for j, xv := range xd {
			s0 += float64(a0[j] * xv)
			s1 += float64(a1[j] * xv)
			s2 += float64(a2[j] * xv)
			s3 += float64(a3[j] * xv)
		}
		out.data[i], out.data[i+1], out.data[i+2], out.data[i+3] = s0, s1, s2, s3
	}
	for ; i < m; i++ {
		s := 0.0
		for j, v := range a.data[i*k : i*k+k] {
			s += float64(v * xd[j])
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
