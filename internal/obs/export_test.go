package obs

// Sum returns the lifetime sum of observations.
func (s *Summary) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}
