package feature

import (
	"fmt"
	"math"

	"hotspot/internal/geom"
	"hotspot/internal/raster"
)

// CCSConfig parameterizes concentric-circle-sampling features (the
// optimized feature of ICCAD'16 [5], originally from the OPC literature):
// drawn density is sampled on rings of increasing radius around the clip
// centre, with more sample points on larger rings, then flattened to 1-D.
type CCSConfig struct {
	// Rings is the number of concentric circles.
	Rings int
	// InnerNM and OuterNM bound the ring radii.
	InnerNM, OuterNM int
	// SamplesBase is the number of sample points on the innermost ring;
	// ring i has SamplesBase + SamplesStep·i points.
	SamplesBase, SamplesStep int
	// ProbeNM is the side of the square probe averaged at each sample
	// point.
	ProbeNM int
	// ResNM is the rasterization resolution.
	ResNM int
}

// DefaultCCSConfig approximates the ICCAD'16 sampling plan for 1200 nm
// clips.
func DefaultCCSConfig() CCSConfig {
	return CCSConfig{
		Rings:       10,
		InnerNM:     40,
		OuterNM:     560,
		SamplesBase: 8,
		SamplesStep: 4,
		ProbeNM:     48,
		ResNM:       8,
	}
}

// Validate checks the configuration.
func (c CCSConfig) Validate() error {
	if c.Rings <= 0 || c.SamplesBase <= 0 || c.SamplesStep < 0 {
		return fmt.Errorf("feature: bad CCS ring parameters")
	}
	if c.InnerNM <= 0 || c.OuterNM < c.InnerNM {
		return fmt.Errorf("feature: bad CCS radii [%d, %d]", c.InnerNM, c.OuterNM)
	}
	if c.ProbeNM <= 0 || c.ResNM <= 0 {
		return fmt.Errorf("feature: bad CCS probe/resolution")
	}
	return nil
}

// Dim returns the feature vector length.
func (c CCSConfig) Dim() int {
	d := 0
	for i := 0; i < c.Rings; i++ {
		d += c.SamplesBase + c.SamplesStep*i
	}
	return d
}

// ExtractCCS computes the CCS feature vector of the clip's core window.
func ExtractCCS(clip geom.Clip, core geom.Rect, cfg CCSConfig) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if core.Empty() {
		return nil, fmt.Errorf("feature: core %v must be non-empty", core)
	}
	if !clip.Frame.ContainsRect(core) {
		return nil, fmt.Errorf("feature: core %v outside clip frame %v", core, clip.Frame)
	}
	im, err := raster.Rasterize(clip, cfg.ResNM)
	if err != nil {
		return nil, err
	}
	// Centre of the core in raster pixels (clip normalized to origin).
	cx := float64(core.X0-clip.Frame.X0+core.W()/2) / float64(cfg.ResNM)
	cy := float64(core.Y0-clip.Frame.Y0+core.H()/2) / float64(cfg.ResNM)

	out := make([]float64, 0, cfg.Dim())
	probePx := cfg.ProbeNM / cfg.ResNM
	if probePx < 1 {
		probePx = 1
	}
	for i := 0; i < cfg.Rings; i++ {
		var radius float64
		if cfg.Rings == 1 {
			radius = float64(cfg.InnerNM)
		} else {
			radius = float64(cfg.InnerNM) + float64(i)*float64(cfg.OuterNM-cfg.InnerNM)/float64(cfg.Rings-1)
		}
		radius /= float64(cfg.ResNM)
		samples := cfg.SamplesBase + cfg.SamplesStep*i
		for s := 0; s < samples; s++ {
			theta := 2 * math.Pi * float64(s) / float64(samples)
			px := cx + float64(radius*math.Cos(theta))
			py := cy + float64(radius*math.Sin(theta))
			out = append(out, probeMean(im, int(px), int(py), probePx))
		}
	}
	return out, nil
}

// probeMean averages a half-open square window of side px centred at
// (x, y); out-of-image pixels count as empty field.
func probeMean(im *raster.Image, x, y, px int) float64 {
	half := px / 2
	s := 0.0
	for yy := y - half; yy < y-half+px; yy++ {
		if yy < 0 || yy >= im.H {
			continue
		}
		row := im.Pix[yy*im.W:]
		for xx := x - half; xx < x-half+px; xx++ {
			if xx < 0 || xx >= im.W {
				continue
			}
			s += row[xx]
		}
	}
	return s / float64(px*px)
}
