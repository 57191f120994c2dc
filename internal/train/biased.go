package train

import (
	"fmt"

	"hotspot/internal/nn"
	"hotspot/internal/tensor"
)

// BiasedConfig parameterizes Algorithm 2 (biased learning).
type BiasedConfig struct {
	// InitialEps is the starting bias ε (0 in the paper).
	InitialEps float64
	// DeltaEps is δε, the per-round bias increment (0.1 in the paper).
	DeltaEps float64
	// Rounds is t, the number of biased-learning rounds including the
	// initial ε round (4 in the paper: ε = 0, 0.1, 0.2, 0.3).
	Rounds int
	// Initial is the MGD configuration of the first (from-scratch) round.
	Initial MGDConfig
	// FineTune is the MGD configuration of subsequent rounds; fine-tuning
	// is shorter and typically reuses a reduced learning rate.
	FineTune MGDConfig
	// KeepBest, when true, returns the round whose validation recall is
	// highest at no worse validation false-alarm growth than the paper's
	// trade-off (a simple guard: recall improvements are accepted
	// unconditionally, matching Theorem 1's direction). When false the
	// final round's model is returned, exactly as Algorithm 2 lists.
	KeepBest bool
	// OnEpoch, when set, receives every round's per-epoch telemetry tagged
	// with the round index and its bias ε. Observation only, like
	// MGDConfig.OnEpoch (which this overrides for the inner MGD runs).
	OnEpoch func(round int, eps float64, e EpochEvent)
}

// Validate checks the configuration.
func (c BiasedConfig) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("train: biased learning needs at least one round, got %d", c.Rounds)
	}
	if c.InitialEps < 0 || c.DeltaEps < 0 {
		return fmt.Errorf("train: negative bias parameters")
	}
	final := c.InitialEps + float64(c.DeltaEps*float64(c.Rounds-1))
	if final >= 0.5 {
		return fmt.Errorf("train: final ε=%v reaches 0.5; the non-hotspot target would cross the boundary", final)
	}
	if err := c.Initial.Validate(); err != nil {
		return fmt.Errorf("train: initial round: %w", err)
	}
	if c.Rounds > 1 {
		if err := c.FineTune.Validate(); err != nil {
			return fmt.Errorf("train: fine-tune rounds: %w", err)
		}
	}
	return nil
}

// RoundResult records one biased-learning round.
type RoundResult struct {
	Eps     float64
	History History
	Val     Metrics
}

// BiasedLearning runs Algorithm 2: train with ε = InitialEps, then
// repeatedly fine-tune the same network with ε increased by DeltaEps. The
// network is modified in place; per-round validation metrics are returned.
func BiasedLearning(net *nn.Network, trainSet, valSet []Sample, cfg BiasedConfig) ([]RoundResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ev *Evaluator
	if len(valSet) > 0 {
		var err error
		if ev, err = NewEvaluator(net, cfg.Initial.Workers); err != nil {
			return nil, err
		}
	}
	results := make([]RoundResult, 0, cfg.Rounds)
	eps := cfg.InitialEps
	var best *nn.Network
	bestRecall := -1.0
	for round := 0; round < cfg.Rounds; round++ {
		mcfg := cfg.Initial
		if round > 0 {
			mcfg = cfg.FineTune
			mcfg.Seed = cfg.FineTune.Seed + int64(round)
		}
		mcfg.Eps = eps
		if cfg.OnEpoch != nil {
			round, eps := round, eps
			mcfg.OnEpoch = func(e EpochEvent) { cfg.OnEpoch(round, eps, e) }
		}
		hist, err := MGD(net, trainSet, valSet, mcfg)
		if err != nil {
			return nil, fmt.Errorf("train: biased round %d (ε=%.2f): %w", round, eps, err)
		}
		var val Metrics
		if ev != nil {
			if val, err = ev.EvalSet(valSet, 0); err != nil {
				return nil, err
			}
		}
		results = append(results, RoundResult{Eps: eps, History: hist, Val: val})
		if cfg.KeepBest && val.Recall > bestRecall {
			bestRecall = val.Recall
			best, err = net.Clone()
			if err != nil {
				return nil, err
			}
		}
		eps += cfg.DeltaEps
	}
	if cfg.KeepBest && best != nil {
		if err := copyWeights(net, best); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// MatchShiftToRecall finds the smallest boundary shift λ (Equation (11))
// that lifts the network's recall on samples to at least targetRecall,
// searching the provided grid in order. It returns the shift and the
// metrics at that shift; if no grid point reaches the target, the last grid
// point's results are returned with ok=false.
func MatchShiftToRecall(net *nn.Network, samples []Sample, targetRecall float64, grid []float64) (shift float64, m Metrics, ok bool, err error) {
	if len(grid) == 0 {
		return 0, Metrics{}, false, fmt.Errorf("train: empty shift grid")
	}
	ev, err := NewEvaluator(net, 0)
	if err != nil {
		return 0, Metrics{}, false, err
	}
	// Score probabilities once; sweep thresholds over the cached scores.
	xs := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	probs, err := ev.PredictProbs(xs)
	if err != nil {
		return 0, Metrics{}, false, err
	}
	for _, g := range grid {
		m = metricsOf(samples, probs, g)
		if m.Recall >= targetRecall {
			return g, m, true, nil
		}
	}
	return grid[len(grid)-1], m, false, nil
}
