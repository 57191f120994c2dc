package tensor

import "fmt"

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
