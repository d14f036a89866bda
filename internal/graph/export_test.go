package graph

import "gillis/internal/tensor"

// ArenaBytes is the size of the activation arena one query's forward runs
// in: the most bytes of node outputs the liveness plan ever holds at once,
// the graph's input and output (which the caller owns) not among them. A
// batch of n takes n times as much.
func (g *Graph) ArenaBytes() (int64, error) {
	p, err := g.plan()
	if err != nil {
		return 0, err
	}
	return int64(p.size) * 4, nil
}

// ForwardBatchIn lets the external tests run a forward in an arena of their
// own, to check that ArenaBytes is exactly what a forward takes.
func (g *Graph) ForwardBatchIn(arena []float32, xs, outs []*tensor.Tensor, obs Observer) error {
	return g.forwardBatchIn(arena, xs, outs, obs)
}

// Buffer and Layout let the external tests check the arena layout on
// programs of their own.
type Buffer = buffer

var Layout = layout
