package fused

// Ops returns the number of fused plan steps (fewer steps than network
// layers means fusion happened).
func (e *Engine) Ops() int { return len(e.ops) }

// ArenaLen returns the total number of float64 slots the plan reserved —
// the engine's entire working memory.
func (e *Engine) ArenaLen() int { return len(e.arena) }
