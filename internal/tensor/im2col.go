package tensor

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

// col2imInto adds the columns back into out (C, H, W) in im2colInto's loop
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
