package boost

import (
	"fmt"
	"math"
)

// SmoothBoost is a smooth-boosting learner (MadaBoost-style): instance
// weights are exp(−margin) capped at 1, which bounds any single instance's
// influence and makes the learner robust to label noise — the property the
// ICCAD'16 detector relies on for its online flow. The model keeps its
// training buffer so it can be updated with newly arriving instances
// (PartialFit), re-boosting only the incremental rounds.
type SmoothBoost struct {
	Ensemble
	roundsPerFit int
	bufX         [][]float64
	bufY         []float64
}

// TrainSmoothBoost fits a smooth-boosting ensemble with the given number of
// rounds.
func TrainSmoothBoost(X [][]float64, y []bool, rounds int) (*SmoothBoost, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("boost: rounds must be positive, got %d", rounds)
	}
	sb := &SmoothBoost{roundsPerFit: rounds}
	pm := labelsToPM(y)
	sb.bufX = append(sb.bufX, X...)
	sb.bufY = append(sb.bufY, pm...)
	if err := sb.boost(rounds); err != nil {
		return nil, err
	}
	return sb, nil
}

// boost adds up to `rounds` stumps fitted on the current buffer with
// capped-exponential weights computed from the current ensemble margins.
func (sb *SmoothBoost) boost(rounds int) error {
	trainer, err := newStumpTrainer(sb.bufX, sb.bufY)
	if err != nil {
		return err
	}
	n := len(sb.bufX)
	margins := make([]float64, n)
	for i := range margins {
		margins[i] = sb.bufY[i] * sb.Score(sb.bufX[i])
	}
	classW := classBalancedWeights(sb.bufY)
	w := make([]float64, n)
	for r := 0; r < rounds; r++ {
		// Capped smooth weights: w_i = classW_i · min(1, exp(-margin_i)),
		// normalized; class balancing as in adaboost.go.
		sum := 0.0
		for i := range w {
			w[i] = math.Exp(-margins[i])
			if w[i] > 1 {
				w[i] = 1
			}
			w[i] = float64(w[i] * (classW[i] * float64(n)))
			sum += w[i]
		}
		if sum == 0 {
			break
		}
		for i := range w {
			w[i] /= sum
		}
		stump, errW := trainer.best(w)
		if errW >= 0.5 {
			break
		}
		edge := 0.5 - errW
		// Smooth boosting uses a conservative, bounded vote proportional to
		// the edge rather than AdaBoost's log-odds.
		alpha := edge
		if errW < 1e-12 {
			alpha = 0.5
		}
		sb.Stumps = append(sb.Stumps, stump)
		sb.Alphas = append(sb.Alphas, alpha)
		for i := range margins {
			margins[i] += float64(alpha * sb.bufY[i] * stump.Predict(sb.bufX[i]))
		}
	}
	if len(sb.Stumps) == 0 {
		return fmt.Errorf("boost: no stump beat chance; features carry no signal")
	}
	return nil
}

// PartialFit appends newly arriving labelled instances to the training
// buffer and boosts additional rounds over the union — the online update
// mode of the ICCAD'16 flow (new lithography results folded into the
// detector without retraining from scratch).
func (sb *SmoothBoost) PartialFit(X [][]float64, y []bool, rounds int) error {
	if len(X) == 0 {
		return fmt.Errorf("boost: PartialFit with no instances")
	}
	if len(X) != len(y) {
		return fmt.Errorf("boost: PartialFit %d instances but %d labels", len(X), len(y))
	}
	if rounds <= 0 {
		rounds = sb.roundsPerFit / 4
		if rounds == 0 {
			rounds = 1
		}
	}
	sb.bufX = append(sb.bufX, X...)
	sb.bufY = append(sb.bufY, labelsToPM(y)...)
	return sb.boost(rounds)
}
