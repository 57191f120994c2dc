// Package dataset bridges generated benchmark suites (internal/layout) and
// the learners: it materializes feature tensors for the CNN and flat
// feature matrices for the baselines, reports class statistics, and
// persists suites with encoding/gob so expensive lithography labelling runs
// once.
package dataset

import (
	"encoding/gob"
	"fmt"
	"io"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/parallel"
	"hotspot/internal/train"
)

// Dataset is a named, labelled benchmark: clips plus the style that
// generated them (the style carries the core-window geometry feature
// extraction needs).
type Dataset struct {
	Name  string
	Style layout.Style
	Train []layout.Sample
	Test  []layout.Sample
}

// FromSuite wraps a generated suite and its style.
func FromSuite(s *layout.Suite, style layout.Style) *Dataset {
	return &Dataset{Name: s.Name, Style: style, Train: s.Train, Test: s.Test}
}

// Core returns the clip-core rectangle shared by every sample.
func (d *Dataset) Core() geom.Rect { return d.Style.CoreRect() }

// Stats reports hotspot/non-hotspot counts of a sample list.
func Stats(samples []layout.Sample) (hs, nhs int) {
	for _, s := range samples {
		if s.Hotspot {
			hs++
		} else {
			nhs++
		}
	}
	return hs, nhs
}

// Save persists the dataset with gob.
func (d *Dataset) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(d); err != nil {
		return fmt.Errorf("dataset: encode %q: %w", d.Name, err)
	}
	return nil
}

// Load reads a dataset written by Save.
func Load(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	return &d, nil
}

// TensorSamples extracts the feature tensor of every clip's core,
// producing CNN training samples. Extraction fans across workers
// goroutines (0 = parallel.Default()); the output order — and every tensor
// in it — is identical under any worker count.
func TensorSamples(samples []layout.Sample, core geom.Rect, cfg feature.TensorConfig, workers int) ([]train.Sample, error) {
	out := make([]train.Sample, len(samples))
	err := parallel.New(workers).For(len(samples), func(_, i int) error {
		ft, err := feature.ExtractTensor(samples[i].Clip, core, cfg)
		if err != nil {
			return fmt.Errorf("dataset: sample %d: %w", i, err)
		}
		out[i] = train.Sample{X: ft, Hotspot: samples[i].Hotspot}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DensityMatrix extracts SPIE'15 density features for every sample across
// workers goroutines (0 = parallel.Default()).
func DensityMatrix(samples []layout.Sample, core geom.Rect, cfg feature.DensityConfig, workers int) ([][]float64, []bool, error) {
	X := make([][]float64, len(samples))
	y := make([]bool, len(samples))
	err := parallel.New(workers).For(len(samples), func(_, i int) error {
		v, err := feature.ExtractDensity(samples[i].Clip, core, cfg)
		if err != nil {
			return fmt.Errorf("dataset: sample %d: %w", i, err)
		}
		X[i] = v
		y[i] = samples[i].Hotspot
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return X, y, nil
}

// CCSMatrix extracts ICCAD'16 concentric-circle features for every sample
// across workers goroutines (0 = parallel.Default()).
func CCSMatrix(samples []layout.Sample, core geom.Rect, cfg feature.CCSConfig, workers int) ([][]float64, []bool, error) {
	X := make([][]float64, len(samples))
	y := make([]bool, len(samples))
	err := parallel.New(workers).For(len(samples), func(_, i int) error {
		v, err := feature.ExtractCCS(samples[i].Clip, core, cfg)
		if err != nil {
			return fmt.Errorf("dataset: sample %d: %w", i, err)
		}
		X[i] = v
		y[i] = samples[i].Hotspot
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return X, y, nil
}

// dihedral transforms a rect under one of the 8 square symmetries within a
// win×win frame: bit 0 mirrors x, bit 1 mirrors y, bit 2 transposes.
func dihedral(r geom.Rect, win, op int) geom.Rect {
	if op&1 != 0 {
		r = geom.R(win-r.X1, r.Y0, win-r.X0, r.Y1)
	}
	if op&2 != 0 {
		r = geom.R(r.X0, win-r.Y1, r.X1, win-r.Y0)
	}
	if op&4 != 0 {
		r = geom.R(r.Y0, r.X0, r.Y1, r.X1)
	}
	return r
}

// AugmentedTensorSamples extracts feature tensors for every clip under the
// first `variants` symmetries of the square (1 = identity only, 8 = the
// full dihedral group). Hotspot labels are invariant under these
// symmetries — the optical model is isotropic and the analysis window is
// centred — so augmentation multiplies the effective training set without
// new lithography runs. The paper trains on industrial-scale suites; at
// reduced scale augmentation recovers some of that data volume (a noted
// deviation, applied to training data only). Extraction fans one task per
// (clip, symmetry) pair across workers goroutines (0 = parallel.Default());
// output order is clip-major, identical to the serial loop.
func AugmentedTensorSamples(samples []layout.Sample, core geom.Rect, cfg feature.TensorConfig, variants, workers int) ([]train.Sample, error) {
	if variants < 1 || variants > 8 {
		return nil, fmt.Errorf("dataset: augmentation variants %d outside [1, 8]", variants)
	}
	out := make([]train.Sample, len(samples)*variants)
	err := parallel.New(workers).For(len(out), func(_, task int) error {
		i, op := task/variants, task%variants
		s := samples[i]
		win := s.Clip.Frame.W()
		if s.Clip.Frame.H() != win || s.Clip.Frame.X0 != 0 || s.Clip.Frame.Y0 != 0 {
			// Normalize so symmetry maths applies.
			s.Clip = s.Clip.Normalize()
			win = s.Clip.Frame.W()
			if s.Clip.Frame.H() != win {
				return fmt.Errorf("dataset: sample %d frame not square", i)
			}
		}
		c := s.Clip
		if op != 0 {
			rects := make([]geom.Rect, len(s.Clip.Rects))
			for j, r := range s.Clip.Rects {
				rects[j] = dihedral(r, win, op)
			}
			c = geom.Clip{Frame: s.Clip.Frame, Rects: rects}
		}
		ft, err := feature.ExtractTensor(c, core, cfg)
		if err != nil {
			return fmt.Errorf("dataset: sample %d variant %d: %w", i, op, err)
		}
		out[task] = train.Sample{X: ft, Hotspot: s.Hotspot}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
