package graph

import "gillis/internal/tensor"

// ForwardBatchIn lets the external tests run a forward in an arena of their
// own, to check that ArenaBytes is exactly what a forward takes.
func (g *Graph) ForwardBatchIn(arena []float32, xs, outs []*tensor.Tensor, obs Observer) error {
	return g.forwardBatchIn(arena, xs, outs, obs)
}

// Buffer and Layout let the external tests check the arena layout on
// programs of their own.
type Buffer = buffer

var Layout = layout
