package partition

import (
	"fmt"

	"gillis/internal/tensor"
)

// ExecSpatial partitions the group `parts` ways, runs every partition's
// graph (PartSlice.Graph) on the group input, and reassembles the full
// output: the in-process reference the exactness tests hold to a monolithic
// run, for what master and workers do cooperatively in the serving runtime.
func ExecSpatial(units []*Unit, parts int, x *tensor.Tensor) (*tensor.Tensor, error) {
	slices, err := SpatialSlices(units, parts)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(slices))
	for i, ps := range slices {
		g, err := ps.Graph(units)
		if err != nil {
			return nil, err
		}
		if outs[i], err = g.Forward(x); err != nil {
			return nil, err
		}
	}
	return join(units[len(units)-1].OutShape, 1, outs)
}

// ExecChannel partitions a single unit `parts` ways along output channels,
// executes every slice on the full input, and reassembles.
func ExecChannel(u *Unit, parts int, x *tensor.Tensor) (*tensor.Tensor, error) {
	slices, err := ChannelSlices(u, parts)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(slices))
	for i, cs := range slices {
		out, err := cs.Sub.Forward(x)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return join(u.OutShape, 0, outs)
}

// join concatenates the partitions' outputs along dim into a new tensor of
// the group output's shape.
func join(shape []int, dim int, outs []*tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(shape...)
	if err := tensor.ConcatDim(out, dim, outs...); err != nil {
		return nil, err
	}
	return out, nil
}

// ForwardChain runs the units one after the other, each sub-graph a forward
// of its own: the monolithic reference the partitioned paths and a whole
// group's Join are tested against.
func ForwardChain(units []*Unit, x *tensor.Tensor) (*tensor.Tensor, error) {
	for _, u := range units {
		var err error
		if x, err = u.Sub.Forward(x); err != nil {
			return nil, fmt.Errorf("partition: unit %d (%s): %w", u.Index, u.Name, err)
		}
	}
	return x, nil
}
