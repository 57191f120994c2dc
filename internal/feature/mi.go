package feature

import (
	"fmt"
	"math"
	"sort"
)

// MutualInformation estimates I(X; Y) in nats between a scalar feature
// (discretized into bins equal-width buckets over its observed range) and a
// binary label. Features with no variation carry zero information.
func MutualInformation(x []float64, y []bool, bins int) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("feature: MI length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return 0, fmt.Errorf("feature: MI of empty sample")
	}
	if bins < 2 {
		return 0, fmt.Errorf("feature: MI needs at least 2 bins, got %d", bins)
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// hi >= lo by construction, so a degenerate range is "not strictly
	// greater". This also keeps a -0/+0 mix out of the (v-lo)/(hi-lo)
	// binning below, where it would divide by zero.
	if hi <= lo {
		return 0, nil
	}
	n := float64(len(x))
	joint := make([][2]float64, bins)
	var py [2]float64
	for i, v := range x {
		b := int(float64(bins) * (v - lo) / (hi - lo))
		if b >= bins {
			b = bins - 1
		}
		c := 0
		if y[i] {
			c = 1
		}
		joint[b][c]++
		py[c]++
	}
	mi := 0.0
	for b := 0; b < bins; b++ {
		pb := (joint[b][0] + joint[b][1]) / n
		if pb == 0 {
			continue
		}
		for c := 0; c < 2; c++ {
			pbc := joint[b][c] / n
			if pbc == 0 {
				continue
			}
			mi += float64(pbc * math.Log(pbc/(pb*py[c]/n)))
		}
	}
	if mi < 0 {
		mi = 0 // numerical guard
	}
	return mi, nil
}

// SelectMI ranks the d features of X (rows are samples) by mutual
// information with the labels and returns the indices of the top m, highest
// first — the information-theoretic feature optimization step of the
// ICCAD'16 baseline.
func SelectMI(X [][]float64, y []bool, m, bins int) ([]int, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("feature: SelectMI on empty sample")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("feature: SelectMI length mismatch %d vs %d", len(X), len(y))
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("feature: SelectMI ragged row %d (%d vs %d)", i, len(row), d)
		}
	}
	if m <= 0 || m > d {
		return nil, fmt.Errorf("feature: SelectMI m=%d outside [1, %d]", m, d)
	}
	type scored struct {
		idx int
		mi  float64
	}
	scores := make([]scored, d)
	col := make([]float64, len(X))
	for j := 0; j < d; j++ {
		for i := range X {
			col[i] = X[i][j]
		}
		mi, err := MutualInformation(col, y, bins)
		if err != nil {
			return nil, err
		}
		scores[j] = scored{idx: j, mi: mi}
	}
	sort.SliceStable(scores, func(a, b int) bool { return scores[a].mi > scores[b].mi })
	out := make([]int, m)
	for i := 0; i < m; i++ {
		out[i] = scores[i].idx
	}
	return out, nil
}

// Project returns X restricted to the given column indices, in order.
func Project(X [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		p := make([]float64, len(idx))
		for j, k := range idx {
			p[j] = row[k]
		}
		out[i] = p
	}
	return out
}
