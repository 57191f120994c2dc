package tensor

import "fmt"

// Im2Col unfolds a (C, H, W) input into a (C*KH*KW, OH*OW) matrix of
// receptive-field columns for a convolution with the given kernel size,
// stride and zero padding. Column j holds the flattened patch that the
// kernel sees at output position j (row-major over the output grid), so a
// convolution becomes a single matrix product: weights (OC, C*KH*KW) times
// the returned matrix.
func Im2Col(in *Tensor, kh, kw, stride, pad int) (*Tensor, error) {
	if in.Rank() != 3 {
		return nil, fmt.Errorf("tensor: im2col needs rank-3 (C,H,W) input, got %v", in.shape)
	}
	if kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("tensor: im2col invalid params kh=%d kw=%d stride=%d pad=%d", kh, kw, stride, pad)
	}
	c, h, w := in.shape[0], in.shape[1], in.shape[2]
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: im2col kernel %dx%d too large for input %dx%d with pad %d", kh, kw, h, w, pad)
	}
	out := New(c*kh*kw, oh*ow)
	im2colInto(out.data, in.data, c, h, w, kh, kw, stride, pad, oh, ow)
	return out, nil
}

// im2colInto writes the unfolded columns of in into out. With stride 1 the
// valid receptive-field entries of an output row form one contiguous run
// of an input row (see strideOneRun), so each row is a zero fill, a copy
// and a zero fill instead of a bounds test per element; the cols are the
// same either way.
//
//hsd:noalloc
func im2colInto(out, in []float64, c, h, w, kh, kw, stride, pad, oh, ow int) {
	ncols := oh * ow
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((ch*kh+ky)*kw + kx) * ncols
				lo, hi := strideOneRun(w, ow, pad, kx)
				if stride == 1 && lo == hi {
					clear(out[row : row+ncols])
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					dst := out[row+oy*ow : row+oy*ow+ow]
					if iy < 0 || iy >= h {
						clear(dst)
						continue
					}
					srcRow := chBase + iy*w
					if stride == 1 {
						clear(dst[:lo])
						copy(dst[lo:hi], in[srcRow+lo-pad+kx:])
						clear(dst[hi:])
						continue
					}
					for ox := range dst {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							dst[ox] = 0
						} else {
							dst[ox] = in[srcRow+ix]
						}
					}
				}
			}
		}
	}
}

// strideOneRun returns the output columns [lo, hi) whose stride-1 input
// column ox − pad + kx lies inside [0, w). The run is empty (lo = hi) when
// the padding puts the whole kernel column off the input; the callers then
// skip the kernel column, since lo − pad + kx need not index the input.
func strideOneRun(w, ow, pad, kx int) (lo, hi int) {
	lo = min(max(pad-kx, 0), ow)
	hi = max(min(w+pad-kx, ow), lo)
	return lo, hi
}

// Col2Im folds a (C*KH*KW, OH*OW) column matrix back into a (C, H, W)
// tensor, accumulating overlapping contributions. It is the adjoint of
// Im2Col and is used to back-propagate gradients through a convolution.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) (*Tensor, error) {
	if cols.Rank() != 2 {
		return nil, fmt.Errorf("tensor: col2im needs rank-2 input, got %v", cols.shape)
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: col2im invalid geometry")
	}
	if cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		return nil, fmt.Errorf("tensor: col2im shape %v does not match geometry (%d, %d)", cols.shape, c*kh*kw, oh*ow)
	}
	out := New(c, h, w)
	col2imInto(out.data, cols.data, c, h, w, kh, kw, stride, pad, oh, ow)
	return out, nil
}

// col2imInto adds the columns back into out (C, H, W) in Im2Col's loop
// order, so every pixel receives its contributions in the same sequence
// whatever the stride. With stride 1 each output row adds its one valid
// run (strideOneRun) without a bounds test per element.
//
//hsd:noalloc
func col2imInto(out, cols []float64, c, h, w, kh, kw, stride, pad, oh, ow int) {
	ncols := oh * ow
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((ch*kh+ky)*kw + kx) * ncols
				lo, hi := strideOneRun(w, ow, pad, kx)
				if stride == 1 && lo == hi {
					continue
				}
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					src := cols[row+oy*ow : row+oy*ow+ow]
					dstRow := chBase + iy*w
					if stride == 1 {
						run := src[lo:hi]
						dst := out[dstRow+lo-pad+kx:][:len(run)]
						for j, v := range run {
							dst[j] += v
						}
						continue
					}
					for ox, v := range src {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							out[dstRow+ix] += v
						}
					}
				}
			}
		}
	}
}

// ConvOutputSize returns the spatial output size of a convolution over an
// input of extent in with the given kernel extent, stride and padding.
func ConvOutputSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
