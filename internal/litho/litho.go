// Package litho is the lithography-simulation substrate: a scalar aerial
// image model, a constant-threshold resist, process-window corners, and the
// printability checks (pullback/necking and bridging) that define ground
// truth.
//
// The paper's labels and its ODST metric come from an industrial simulator
// that is not available; this package substitutes a sum-of-coherent-systems
// (SOCS) style model with Gaussian coherent kernels:
//
//	I(x, y) = Σ_i w_i · (mask ⊛ g_i)²(x, y)
//
// Gaussians are separable, so each field convolution is two 1-D passes.
// Defocus widens every kernel; dose scales the effective threshold. What
// matters for the reproduction is preserved: a clip's hotspot label is an
// *optical* property that depends on the clip's surroundings through the
// point-spread function, which is exactly the spatial coupling the feature
// tensor and CNN are designed to capture.
package litho

import (
	"fmt"
	"math"

	"hotspot/internal/fft"
	"hotspot/internal/raster"
)

// Kernel is one coherent Gaussian kernel of the SOCS decomposition.
type Kernel struct {
	// SigmaNM is the Gaussian standard deviation in nanometres.
	SigmaNM float64
	// Weight is the kernel's intensity weight; weights are normalized at
	// simulation time so an infinite clear field has intensity 1.
	Weight float64
}

// Condition is one process corner.
type Condition struct {
	// Dose is the exposure dose multiplier (1.0 = nominal).
	Dose float64
	// Defocus is the normalized defocus in [0, 1]; kernels widen by
	// (1 + DefocusSpread·Defocus).
	Defocus float64
}

// OpticalModel describes the projection optics.
type OpticalModel struct {
	Kernels []Kernel
	// DefocusSpread is the fractional sigma widening at Defocus = 1.
	DefocusSpread float64
}

// Resist is a constant-threshold resist model: a point prints when
// dose·I >= Threshold. With normalized optics, 0.25 places the printed
// contour of an isolated straight edge exactly on the drawn edge.
type Resist struct {
	Threshold float64
}

// Config assembles a full simulator.
type Config struct {
	Optics OpticalModel
	Resist Resist
	// Corners are the process-window conditions checked by the hotspot
	// oracle; a clip is a hotspot when any corner produces a defect.
	Corners []Condition
	// ResNM is the raster resolution (nanometres per pixel) the simulator
	// expects its mask images at.
	ResNM int
	// EPEToleranceNM is how far a printed edge may pull back from the drawn
	// edge before the pattern counts as failing (open / necking).
	EPEToleranceNM int
	// BridgeToleranceNM is how far printing may extend beyond drawn
	// geometry before it counts as a bridge.
	BridgeToleranceNM int
}

// DefaultConfig returns the process used for all generated benchmarks:
// two-kernel SOCS optics sized for a ~28 nm-node metal layer (the ICCAD 2012
// suite's node), ±5% dose and full defocus corners.
func DefaultConfig() Config {
	return Config{
		Optics: OpticalModel{
			Kernels: []Kernel{
				{SigmaNM: 28, Weight: 0.8},
				{SigmaNM: 70, Weight: 0.2},
			},
			DefocusSpread: 0.30,
		},
		Resist: Resist{Threshold: 0.25},
		Corners: []Condition{
			{Dose: 1.00, Defocus: 0},
			{Dose: 1.05, Defocus: 0},
			{Dose: 0.95, Defocus: 0},
			{Dose: 1.05, Defocus: 1},
			{Dose: 0.95, Defocus: 1},
		},
		ResNM:             8,
		EPEToleranceNM:    40,
		BridgeToleranceNM: 32,
	}
}

// Validate checks a configuration for usability.
func (c Config) Validate() error {
	if len(c.Optics.Kernels) == 0 {
		return fmt.Errorf("litho: optical model has no kernels")
	}
	wsum := 0.0
	for i, k := range c.Optics.Kernels {
		if k.SigmaNM <= 0 {
			return fmt.Errorf("litho: kernel %d has non-positive sigma %v", i, k.SigmaNM)
		}
		if k.Weight <= 0 {
			return fmt.Errorf("litho: kernel %d has non-positive weight %v", i, k.Weight)
		}
		wsum += k.Weight
	}
	if wsum == 0 {
		return fmt.Errorf("litho: kernel weights sum to zero")
	}
	if c.Resist.Threshold <= 0 || c.Resist.Threshold >= 1 {
		return fmt.Errorf("litho: resist threshold %v outside (0, 1)", c.Resist.Threshold)
	}
	if c.ResNM <= 0 {
		return fmt.Errorf("litho: resolution must be positive, got %d", c.ResNM)
	}
	if len(c.Corners) == 0 {
		return fmt.Errorf("litho: no process corners configured")
	}
	for i, cond := range c.Corners {
		if cond.Dose <= 0 {
			return fmt.Errorf("litho: corner %d has non-positive dose", i)
		}
		if cond.Defocus < 0 {
			return fmt.Errorf("litho: corner %d has negative defocus", i)
		}
	}
	if c.EPEToleranceNM < 0 || c.BridgeToleranceNM < 0 {
		return fmt.Errorf("litho: tolerances must be non-negative")
	}
	return nil
}

// Simulator computes aerial images and printability for mask rasters.
type Simulator struct {
	cfg     Config
	weights []float64 // normalized kernel weights
}

// NewSimulator validates cfg and returns a simulator.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wsum := 0.0
	for _, k := range cfg.Optics.Kernels {
		wsum += k.Weight
	}
	s := &Simulator{cfg: cfg, weights: make([]float64, len(cfg.Optics.Kernels))}
	for i, k := range cfg.Optics.Kernels {
		s.weights[i] = k.Weight / wsum
	}
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Aerial computes the aerial image of a mask raster at the given defocus.
// The mask must be rasterized at Config.ResNM nanometres per pixel.
func (s *Simulator) Aerial(mask *raster.Image, defocus float64) *raster.Image {
	out := raster.NewImage(mask.W, mask.H)
	widen := 1 + float64(s.cfg.Optics.DefocusSpread*defocus)
	for i, k := range s.cfg.Optics.Kernels {
		sigmaPx := k.SigmaNM * widen / float64(s.cfg.ResNM)
		field := gaussianBlur(mask, sigmaPx)
		w := s.weights[i]
		for j, v := range field.Pix {
			out.Pix[j] += float64(w * v * v)
		}
	}
	return out
}

// Print thresholds an aerial image under the given dose, returning the
// binary printed image.
func (s *Simulator) Print(aerial *raster.Image, dose float64) *raster.Image {
	th := s.cfg.Resist.Threshold / dose
	return aerial.Threshold(th)
}

// gaussianBlur convolves im with a normalized separable Gaussian of the
// given sigma (pixels), truncated at 3σ, with zero (dark-field) padding.
func gaussianBlur(im *raster.Image, sigmaPx float64) *raster.Image {
	if sigmaPx <= 0 {
		return im.Clone()
	}
	radius := int(math.Ceil(3 * sigmaPx))
	if radius < 1 {
		radius = 1
	}
	kern := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range kern {
		d := float64(i - radius)
		kern[i] = math.Exp(-d * d / (2 * sigmaPx * sigmaPx))
		sum += kern[i]
	}
	for i := range kern {
		kern[i] /= sum
	}
	// Horizontal pass.
	tmp := raster.NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W : (y+1)*im.W]
		orow := tmp.Pix[y*im.W : (y+1)*im.W]
		for x := 0; x < im.W; x++ {
			s := 0.0
			for k := -radius; k <= radius; k++ {
				xx := x + k
				if xx < 0 || xx >= im.W {
					continue
				}
				s += float64(row[xx] * kern[k+radius])
			}
			orow[x] = s
		}
	}
	// Vertical pass.
	out := raster.NewImage(im.W, im.H)
	for x := 0; x < im.W; x++ {
		for y := 0; y < im.H; y++ {
			s := 0.0
			for k := -radius; k <= radius; k++ {
				yy := y + k
				if yy < 0 || yy >= im.H {
					continue
				}
				s += float64(tmp.Pix[yy*im.W+x] * kern[k+radius])
			}
			out.Pix[y*im.W+x] = s
		}
	}
	return out
}

// AerialFFT computes the same aerial image as Aerial but convolves with
// explicit 2-D kernel grids through internal/fft instead of the separable
// two-pass filter. It exists for two reasons: it validates the fast path
// (the package tests assert agreement), and it accepts non-separable
// kernels via SimulateKernels for users replacing the Gaussian optics with
// tabulated SOCS kernels.
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
		field, err := fft.ConvolveSame2D(mask.Pix, mask.H, mask.W, k.Pix, k.H, k.W)
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
