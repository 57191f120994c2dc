package litho

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"hotspot/internal/raster"
)

// The optics oracle: a radix-2 complex fast Fourier transform, 2-D
// transforms, FFT-based 2-D convolution, and an aerial image built on them
// from explicit 2-D kernel grids. Production simulates through the
// separable two-pass filter (Aerial); these are the independent
// computation the tests check it against.

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// FFT computes the in-place forward DFT of x, whose length must be a power
// of two: X[k] = sum_j x[j] * exp(-2πi jk/n).
func FFT(x []complex128) error { return transform(x, false) }

// IFFT computes the in-place inverse DFT of x (including the 1/n scaling).
func IFFT(x []complex128) error { return transform(x, true) }

func transform(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative Cooley-Tukey butterflies.
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// FFT2D computes the forward 2-D DFT of an h×w row-major grid in place.
// Both h and w must be powers of two.
func FFT2D(x []complex128, h, w int) error { return transform2D(x, h, w, false) }

// IFFT2D computes the inverse 2-D DFT in place.
func IFFT2D(x []complex128, h, w int) error { return transform2D(x, h, w, true) }

func transform2D(x []complex128, h, w int, inverse bool) error {
	if len(x) != h*w {
		return fmt.Errorf("fft: grid length %d does not match %dx%d", len(x), h, w)
	}
	if !IsPow2(h) || !IsPow2(w) {
		return fmt.Errorf("fft: grid dimensions %dx%d must be powers of two", h, w)
	}
	// Rows.
	for y := 0; y < h; y++ {
		if err := transform(x[y*w:(y+1)*w], inverse); err != nil {
			return err
		}
	}
	// Columns via a scratch buffer.
	col := make([]complex128, h)
	for cx := 0; cx < w; cx++ {
		for y := 0; y < h; y++ {
			col[y] = x[y*w+cx]
		}
		if err := transform(col, inverse); err != nil {
			return err
		}
		for y := 0; y < h; y++ {
			x[y*w+cx] = col[y]
		}
	}
	return nil
}

// Convolve2D computes the full linear 2-D convolution of a (ah×aw) with
// b (bh×bw), returning an (ah+bh-1)×(aw+bw-1) grid. Inputs are real; the
// transform runs on zero-padded power-of-two grids.
func Convolve2D(a []float64, ah, aw int, b []float64, bh, bw int) ([]float64, int, int, error) {
	if len(a) != ah*aw || len(b) != bh*bw {
		return nil, 0, 0, fmt.Errorf("fft: convolve operand size mismatch")
	}
	if ah <= 0 || aw <= 0 || bh <= 0 || bw <= 0 {
		return nil, 0, 0, fmt.Errorf("fft: convolve operands must be non-empty")
	}
	oh, ow := ah+bh-1, aw+bw-1
	ph, pw := NextPow2(oh), NextPow2(ow)
	fa := make([]complex128, ph*pw)
	fb := make([]complex128, ph*pw)
	for y := 0; y < ah; y++ {
		for x := 0; x < aw; x++ {
			fa[y*pw+x] = complex(a[y*aw+x], 0)
		}
	}
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			fb[y*pw+x] = complex(b[y*bw+x], 0)
		}
	}
	if err := FFT2D(fa, ph, pw); err != nil {
		return nil, 0, 0, err
	}
	if err := FFT2D(fb, ph, pw); err != nil {
		return nil, 0, 0, err
	}
	for i := range fa {
		fa[i] *= fb[i]
	}
	if err := IFFT2D(fa, ph, pw); err != nil {
		return nil, 0, 0, err
	}
	out := make([]float64, oh*ow)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			out[y*ow+x] = real(fa[y*pw+x])
		}
	}
	return out, oh, ow, nil
}

// ConvolveSame2D convolves a with kernel b and crops the result to a's
// size, centring the kernel (the "same" convolution used for optical
// point-spread functions). The kernel's centre is at (bh/2, bw/2).
func ConvolveSame2D(a []float64, ah, aw int, b []float64, bh, bw int) ([]float64, error) {
	full, _, ow, err := Convolve2D(a, ah, aw, b, bh, bw)
	if err != nil {
		return nil, err
	}
	offY, offX := bh/2, bw/2
	out := make([]float64, ah*aw)
	for y := 0; y < ah; y++ {
		srcRow := (y + offY) * ow
		for x := 0; x < aw; x++ {
			out[y*aw+x] = full[srcRow+x+offX]
		}
	}
	return out, nil
}

// AerialFFT computes the same aerial image as Aerial but convolves with
// explicit 2-D kernel grids through the FFT instead of the separable
// two-pass filter: the oracle TestAerialFFTAgreesWithSeparable holds the
// fast path to.
func (s *Simulator) AerialFFT(mask *raster.Image, defocus float64) (*raster.Image, error) {
	widen := 1 + float64(s.cfg.Optics.DefocusSpread*defocus)
	kernels := make([]*raster.Image, len(s.cfg.Optics.Kernels))
	for i, k := range s.cfg.Optics.Kernels {
		kernels[i] = gaussianKernelImage(k.SigmaNM * widen / float64(s.cfg.ResNM))
	}
	return s.SimulateKernels(mask, kernels, s.weights)
}

// SimulateKernels computes I = Σ w_i (mask ⊛ K_i)² for arbitrary kernel
// grids (odd dimensions recommended so the centre is well-defined).
func (s *Simulator) SimulateKernels(mask *raster.Image, kernels []*raster.Image, weights []float64) (*raster.Image, error) {
	if len(kernels) == 0 || len(kernels) != len(weights) {
		return nil, fmt.Errorf("litho: need matching kernels and weights, got %d/%d", len(kernels), len(weights))
	}
	out := raster.NewImage(mask.W, mask.H)
	for i, k := range kernels {
		field, err := ConvolveSame2D(mask.Pix, mask.H, mask.W, k.Pix, k.H, k.W)
		if err != nil {
			return nil, err
		}
		w := weights[i]
		for j, v := range field {
			out.Pix[j] += float64(w * v * v)
		}
	}
	return out, nil
}

// gaussianKernelImage renders a normalized 2-D Gaussian kernel truncated at
// 3σ as an image grid.
func gaussianKernelImage(sigmaPx float64) *raster.Image {
	radius := int(math.Ceil(3 * sigmaPx))
	if radius < 1 {
		radius = 1
	}
	side := 2*radius + 1
	k := raster.NewImage(side, side)
	sum := 0.0
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			dx, dy := float64(x-radius), float64(y-radius)
			v := math.Exp(-(float64(dx*dx) + float64(dy*dy)) / (2 * sigmaPx * sigmaPx))
			k.Set(x, y, v)
			sum += v
		}
	}
	for i := range k.Pix {
		k.Pix[i] /= sum
	}
	return k
}
