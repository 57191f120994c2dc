package train

import (
	"fmt"
	"math"
	"sort"

	"hotspot/internal/nn"
)

// ROCPoint is one operating point of the detector: the boundary shift that
// produces it, plus the resulting true/false positive rates.
type ROCPoint struct {
	Shift float64
	TPR   float64 // recall
	FPR   float64 // false alarms / non-hotspots
	FA    int
}

// ROC scores every sample once and sweeps the decision boundary across the
// observed probabilities, returning operating points from the strictest to
// the loosest threshold. The curve underlies the paper's Figure 4 style
// trade-off analysis: each point is the (accuracy, false alarm) pair a
// boundary shift would produce.
func ROC(net *nn.Network, samples []Sample) ([]ROCPoint, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("train: ROC of empty sample set")
	}
	type scored struct {
		p   float64
		hot bool
	}
	all := make([]scored, len(samples))
	nPos, nNeg := 0, 0
	for i, s := range samples {
		p, err := PredictProb(net, s.X)
		if err != nil {
			return nil, err
		}
		all[i] = scored{p: p, hot: s.Hotspot}
		if s.Hotspot {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return nil, fmt.Errorf("train: ROC needs both classes present (%d hotspot, %d not)", nPos, nNeg)
	}
	// Sort by descending probability; walk thresholds between samples.
	sort.Slice(all, func(a, b int) bool { return all[a].p > all[b].p })
	points := make([]ROCPoint, 0, len(all)+1)
	tp, fp := 0, 0
	points = append(points, ROCPoint{Shift: 0.5 - all[0].p, TPR: 0, FPR: 0})
	for i, s := range all {
		if s.hot {
			tp++
		} else {
			fp++
		}
		// Emit a point only when the next probability differs (ties share
		// a threshold). Bit-level identity is the intended tie test:
		// equal scores come from identical forward passes.
		if i+1 < len(all) && math.Float64bits(all[i+1].p) == math.Float64bits(s.p) {
			continue
		}
		points = append(points, ROCPoint{
			Shift: 0.5 - s.p,
			TPR:   float64(tp) / float64(nPos),
			FPR:   float64(fp) / float64(nNeg),
			FA:    fp,
		})
	}
	return points, nil
}

// AUC integrates an ROC curve with the trapezoid rule. Points must come
// from ROC (sorted by increasing FPR).
func AUC(points []ROCPoint) (float64, error) {
	if len(points) < 2 {
		return 0, fmt.Errorf("train: AUC needs at least 2 ROC points")
	}
	area := 0.0
	for i := 1; i < len(points); i++ {
		dx := points[i].FPR - points[i-1].FPR
		if dx < 0 {
			return 0, fmt.Errorf("train: ROC points not sorted by FPR")
		}
		area += float64(dx * (points[i].TPR + points[i-1].TPR) / 2)
	}
	return area, nil
}
