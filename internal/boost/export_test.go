package boost

// BufferSize returns the number of instances the model has absorbed.
func (sb *SmoothBoost) BufferSize() int { return len(sb.bufX) }
