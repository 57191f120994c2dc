package nn

import (
	"fmt"
	"math/rand"
)

// PaperNetConfig describes the Table 1 architecture for an (k, n, n)
// feature tensor input.
type PaperNetConfig struct {
	// InChannels is k, the feature tensor depth (32 in the reference
	// configuration).
	InChannels int
	// SpatialSize is n, the feature tensor side (12 in the paper).
	SpatialSize int
	// Conv1Maps and Conv2Maps are the feature map counts of the two
	// convolution stages (16 and 32 in Table 1).
	Conv1Maps, Conv2Maps int
	// FC1 is the first fully connected layer width (250 in Table 1).
	FC1 int
	// DropoutRate is applied to fc1 during training (0.5 in the paper).
	DropoutRate float64
	// Seed drives weight initialization and dropout sampling.
	Seed int64
}

// DefaultPaperNetConfig returns the exact Table 1 configuration.
func DefaultPaperNetConfig() PaperNetConfig {
	return PaperNetConfig{
		InChannels:  32,
		SpatialSize: 12,
		Conv1Maps:   16,
		Conv2Maps:   32,
		FC1:         250,
		DropoutRate: 0.5,
		Seed:        1,
	}
}

// Validate checks the configuration.
func (c PaperNetConfig) Validate() error {
	if c.InChannels <= 0 || c.SpatialSize <= 0 {
		return fmt.Errorf("nn: paper net needs positive input dims, got k=%d n=%d", c.InChannels, c.SpatialSize)
	}
	if c.SpatialSize%4 != 0 {
		return fmt.Errorf("nn: paper net spatial size %d must be divisible by 4 (two 2x2 pools)", c.SpatialSize)
	}
	if c.Conv1Maps <= 0 || c.Conv2Maps <= 0 || c.FC1 <= 0 {
		return fmt.Errorf("nn: paper net needs positive layer widths")
	}
	if !(c.DropoutRate >= 0 && c.DropoutRate < 1) { // NaN fails too
		return fmt.Errorf("nn: paper net dropout rate %v outside [0, 1)", c.DropoutRate)
	}
	return nil
}

// NewPaperNet builds the paper's CNN (Figure 2 / Table 1): two convolution
// stages — each two 3×3 same-padded conv+ReLU layers and a 2×2 max-pool —
// followed by FC-250 (ReLU, dropout) and FC-2.
func NewPaperNet(cfg PaperNetConfig) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.SpatialSize
	flat := (n / 4) * (n / 4) * cfg.Conv2Maps

	conv11, err := NewConv2D("conv1-1", cfg.InChannels, cfg.Conv1Maps, 3, 1, 1, rng)
	if err != nil {
		return nil, err
	}
	conv12, err := NewConv2D("conv1-2", cfg.Conv1Maps, cfg.Conv1Maps, 3, 1, 1, rng)
	if err != nil {
		return nil, err
	}
	conv21, err := NewConv2D("conv2-1", cfg.Conv1Maps, cfg.Conv2Maps, 3, 1, 1, rng)
	if err != nil {
		return nil, err
	}
	conv22, err := NewConv2D("conv2-2", cfg.Conv2Maps, cfg.Conv2Maps, 3, 1, 1, rng)
	if err != nil {
		return nil, err
	}
	fc1, err := NewDense("fc1", flat, cfg.FC1, rng)
	if err != nil {
		return nil, err
	}
	drop, err := NewDropout("dropout1", cfg.DropoutRate, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	fc2, err := NewDense("fc2", cfg.FC1, 2, rng)
	if err != nil {
		return nil, err
	}
	return NewNetwork(
		conv11, NewReLU("relu1-1"),
		conv12, NewReLU("relu1-2"),
		NewMaxPool2("maxpooling1"),
		conv21, NewReLU("relu2-1"),
		conv22, NewReLU("relu2-2"),
		NewMaxPool2("maxpooling2"),
		fc1, NewReLU("relu-fc1"), drop,
		fc2,
	), nil
}
