package feature

// BlockPx returns the encoder's pixel block side.
func (e *BlockEncoder) BlockPx() int { return e.blockPx }

// K returns the coefficient count written per block.
func (e *BlockEncoder) K() int { return e.k }
