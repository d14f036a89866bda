package graph

import "gillis/internal/tensor"

// ForwardBatchIn lets the external tests run a forward in an arena of their
// own, to check that ArenaBytes is exactly what a forward takes.
func (g *Graph) ForwardBatchIn(arena []float32, xs, outs []*tensor.Tensor, obs Observer) error {
	return g.forwardBatchIn(arena, xs, outs, obs)
}
