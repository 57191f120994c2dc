// Package scan is a buflint fixture for the die-scan hot bodies: the
// extract and score passes run once per tile / per window row over
// millions of windows, so a per-item make of any slice type is churn at
// scan rate. Scanner-construction helpers stay legal.
package scan

type scanner struct {
	block []float64
}

func (s *scanner) encodeRegion(n int) {
	px := make([]float64, n) // want "per-call make of a slice in hot path scan.encodeRegion"
	_ = px
	ids := make([]int, n) // want "per-call make of a slice in hot path scan.encodeRegion"
	_ = ids
	if cap(s.block) < n {
		s.block = make([]float64, n) // grow-once behind a cap guard: clean
	}
}

func (s *scanner) scoreRow(n int) []float64 {
	return make([]float64, n) // want "per-call make of a slice in hot path scan.scoreRow"
}

func (s *scanner) newGrid(n int) []float64 {
	return make([]float64, n) // construction, not a pass body: clean
}
