package nn

// ZeroGrads clears every parameter gradient.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}
