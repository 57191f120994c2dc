package boost

import (
	"fmt"
	"math"
)

// Ensemble is a weighted vote of decision stumps; both AdaBoost and smooth
// boosting produce one.
type Ensemble struct {
	Stumps []Stump
	Alphas []float64
}

// Score returns the signed ensemble margin Σ α_h · h(x).
func (e *Ensemble) Score(x []float64) float64 {
	s := 0.0
	for i, st := range e.Stumps {
		s += float64(e.Alphas[i] * st.Predict(x))
	}
	return s
}

// Predict returns the boolean class (margin > 0).
func (e *Ensemble) Predict(x []float64) bool { return e.Score(x) > 0 }

// classBalancedWeights gives each class half the total weight regardless of
// its count — the standard cost-sensitive initialization for hotspot data,
// where non-hotspots outnumber hotspots by an order of magnitude and plain
// 0/1-error boosting would otherwise collapse to the majority class.
func classBalancedWeights(pm []float64) []float64 {
	pos, neg := 0, 0
	for _, v := range pm {
		if v > 0 {
			pos++
		} else {
			neg++
		}
	}
	w := make([]float64, len(pm))
	for i, v := range pm {
		if v > 0 && pos > 0 {
			w[i] = 0.5 / float64(pos)
		} else if neg > 0 {
			w[i] = 0.5 / float64(neg)
		}
	}
	// One-class degenerate case: uniform.
	if pos == 0 || neg == 0 {
		for i := range w {
			w[i] = 1 / float64(len(pm))
		}
	}
	return w
}

// labelsToPM converts bool labels to ±1.
func labelsToPM(y []bool) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if v {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// TrainAdaBoost runs discrete AdaBoost with decision stumps for the given
// number of rounds (the SPIE'15 baseline's learner). Training stops early
// when a stump achieves zero error (its vote would be unbounded) or no
// stump beats chance.
func TrainAdaBoost(X [][]float64, y []bool, rounds int) (*Ensemble, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("boost: rounds must be positive, got %d", rounds)
	}
	pm := labelsToPM(y)
	trainer, err := newStumpTrainer(X, pm)
	if err != nil {
		return nil, err
	}
	w := classBalancedWeights(pm)
	ens := &Ensemble{}
	for r := 0; r < rounds; r++ {
		stump, errW := trainer.best(w)
		if errW >= 0.5 {
			break // no stump beats chance on the current weighting
		}
		var alpha float64
		if errW < 1e-12 {
			// Perfect stump: cap its vote and stop — additional rounds
			// cannot improve the training margin.
			alpha = 12.0
			ens.Stumps = append(ens.Stumps, stump)
			ens.Alphas = append(ens.Alphas, alpha)
			break
		}
		alpha = 0.5 * math.Log((1-errW)/errW)
		ens.Stumps = append(ens.Stumps, stump)
		ens.Alphas = append(ens.Alphas, alpha)
		// Reweight and normalize.
		sum := 0.0
		for i := range w {
			w[i] = float64(w[i] * math.Exp(-alpha*pm[i]*stump.Predict(X[i])))
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	if len(ens.Stumps) == 0 {
		return nil, fmt.Errorf("boost: no stump beat chance; features carry no signal")
	}
	return ens, nil
}
