package partition

import (
	"fmt"
	"math"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// ExecSpatialPart computes one spatial partition of a layer group. slab must
// contain rows slice.InRows of the group input (full channels and width).
// The result contains rows slice.OutRows of the group output, bitwise equal
// to the corresponding rows of a monolithic run: interior halo rows come
// from the slab and boundary overhang is filled with the op's padding value
// (0, or -inf for max pooling), exactly as implicit padding would.
func ExecSpatialPart(units []*Unit, slice PartSlice, slab *tensor.Tensor) (*tensor.Tensor, error) {
	if len(units) != len(slice.units) {
		return nil, fmt.Errorf("partition: slice built for %d units, got %d", len(slice.units), len(units))
	}
	cur := slab
	curRange := slice.InRows
	for ui, u := range units {
		us := slice.units[ui]
		if us.inRows != curRange {
			return nil, fmt.Errorf("partition: unit %d input rows %v, slice expects %v", ui, curRange, us.inRows)
		}
		out, err := execUnitPart(u, us, cur)
		if err != nil {
			return nil, err
		}
		cur = out
		curRange = us.nodes[u.Sub.OutputID()]
	}
	return cur, nil
}

// execUnitPart runs one unit's subgraph over the partition's row ranges.
func execUnitPart(u *Unit, us unitSlice, slab *tensor.Tensor) (*tensor.Tensor, error) {
	nodes := u.Sub.Nodes()
	shapes := u.NodeShapes()
	vals := make([]*tensor.Tensor, len(nodes))
	for _, node := range nodes {
		outRange := us.nodes[node.ID]
		if outRange.Len() <= 0 {
			continue // dead node for this partition (cannot happen in practice)
		}
		k, s, p, err := hksp(node.Op)
		if err != nil {
			return nil, err
		}
		req := inRangeForOut(outRange, k, s, p)
		ins := make([]*tensor.Tensor, len(node.Inputs))
		for i, in := range node.Inputs {
			var src *tensor.Tensor
			var srcRange RowRange
			var srcH int
			if in == graph.InputID {
				src, srcRange, srcH = slab, us.inRows, heightOf(u.InShape)
			} else {
				src, srcRange, srcH = vals[in], us.nodes[in], shapes[in][1]
			}
			padded, err := windowSlab(src, srcRange, srcH, req, padValue(node.Op))
			if err != nil {
				return nil, fmt.Errorf("partition: unit %d node %s: %w", u.Index, node.Op.Name(), err)
			}
			ins[i] = padded
		}
		sp := node.Op.(nn.Spatial) // hksp already verified
		nn.Observe(node.Op)
		out, err := sp.ForwardValidH(ins...)
		if err != nil {
			return nil, fmt.Errorf("partition: unit %d node %s: %w", u.Index, node.Op.Name(), err)
		}
		if out.Dim(1) != outRange.Len() {
			return nil, fmt.Errorf("partition: unit %d node %s produced %d rows, want %d",
				u.Index, node.Op.Name(), out.Dim(1), outRange.Len())
		}
		vals[node.ID] = out
	}
	return vals[u.Sub.OutputID()], nil
}

// windowSlab extracts rows req (which may overhang [0, srcH)) from a CHW slab
// covering srcRange, filling overhang with fill: one allocation of the window
// and one copy of the rows the slab has.
func windowSlab(src *tensor.Tensor, srcRange RowRange, srcH int, req RowRange, fill float32) (*tensor.Tensor, error) {
	inside := req.clip(srcH)
	if inside.Lo < srcRange.Lo || inside.Hi > srcRange.Hi {
		return nil, fmt.Errorf("need rows %v but slab covers %v (h=%d)", req, srcRange, srcH)
	}
	if src.Rank() != 3 || src.Dim(1) != srcRange.Len() || inside.Len() <= 0 {
		return nil, fmt.Errorf("cannot cut rows %v out of a %v slab covering %v", req, src.Shape(), srcRange)
	}
	c, w := src.Dim(0), src.Dim(2)
	out := tensor.New(c, req.Len(), w)
	sd, od := src.Data(), out.Data()
	lo, hi := (inside.Lo-req.Lo)*w, (inside.Hi-req.Lo)*w // the body inside one channel of the window
	for ci := 0; ci < c; ci++ {
		win := od[ci*req.Len()*w : (ci+1)*req.Len()*w]
		if fill != 0 {
			fillF32(win[:lo], fill)
			fillF32(win[hi:], fill)
		}
		copy(win[lo:hi], sd[(ci*srcRange.Len()+inside.Lo-srcRange.Lo)*w:])
	}
	return out, nil
}

// fillF32 sets every element of s to v.
func fillF32(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}

// padValue returns the implicit padding fill of an op (-inf for max
// pooling, zero otherwise).
func padValue(op nn.Op) float32 {
	if op.Kind() == nn.KindMaxPool {
		return float32(math.Inf(-1))
	}
	return 0
}

// ExecSpatial partitions the group `parts` ways, executes every partition,
// and reassembles the full output. It is the in-process reference for what
// master and workers do cooperatively in the serving runtime.
func ExecSpatial(units []*Unit, parts int, x *tensor.Tensor) (*tensor.Tensor, error) {
	slices, err := SpatialSlices(units, parts)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(slices))
	for i, ps := range slices {
		slab, err := x.SliceDim(1, ps.InRows.Lo, ps.InRows.Hi)
		if err != nil {
			return nil, err
		}
		out, err := ExecSpatialPart(units, ps, slab)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return tensor.ConcatDim(1, outs...)
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
	return tensor.ConcatDim(0, outs...)
}

// InputSlab extracts the group-input rows a spatial partition needs.
func InputSlab(x *tensor.Tensor, ps PartSlice) (*tensor.Tensor, error) {
	return x.SliceDim(1, ps.InRows.Lo, ps.InRows.Hi)
}
